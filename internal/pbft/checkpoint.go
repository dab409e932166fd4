package pbft

// PBFT checkpointing, log GC, and state transfer (Castro & Liskov §4.3),
// scoped to the package's fixed-view normal case.
//
// Every K executed batches (K = WithCheckpointInterval, default
// smr.DefaultCheckpointInterval = 128) a replica snapshots its state machine plus
// client table and broadcasts a signed CHECKPOINT(n, digest). 2f+1 matching
// votes make the checkpoint stable — here the quorum is 2f+1 (not MinBFT's
// f+1) because without trusted counters f of the voters may be Byzantine
// and a further f unreachable, and stability must still be backed by f+1
// correct replicas — after which all slots at or below n are released.
// Unlike MinBFT there is no per-peer ordered cursor, so GC needs no
// watermark bookkeeping: a late message for a released slot is simply
// ignored (n <= stable seq).
//
// A replica that sees a stable-checkpoint quorum beyond its own execution
// broadcasts a signed STATE-FETCH; peers answer with their stable
// certificate (the 2f+1 signed votes) plus the state payload, which the
// requester verifies against the membership's keys and the digest before
// installing. Every further checkpoint vote beyond the quorum re-triggers
// the fetch, which substitutes for a retry timer in this timer-free
// package.

import (
	"crypto/sha256"
	"fmt"

	"unidir/internal/transport"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// ckptVote is one received CHECKPOINT: the digest voted for and the
// sender's signature over the full signed message (kept for certificates).
type ckptVote struct {
	digest [sha256.Size]byte
	sig    []byte
}

// ckptCert is a stable-checkpoint certificate: 2f+1 signed votes on
// (Seq, Digest), verifiable by anyone holding the membership's keys.
type ckptCert struct {
	Seq    types.SeqNum
	Digest [sha256.Size]byte
	Votes  []certVote
}

type certVote struct {
	Sender types.ProcessID
	Sig    []byte
}

// maxCertVotes bounds decoded certificate vote lists (defensive).
const maxCertVotes = 1 << 10

func encodeCkptCert(e *wire.Encoder, c ckptCert) {
	e.Uint64(uint64(c.Seq))
	e.BytesField(c.Digest[:])
	e.Int(len(c.Votes))
	for _, v := range c.Votes {
		e.Int(int(v.Sender))
		e.BytesField(v.Sig)
	}
}

func decodeCkptCert(d *wire.Decoder) (ckptCert, error) {
	var c ckptCert
	c.Seq = types.SeqNum(d.Uint64())
	h := d.BytesField()
	n := d.Int()
	if err := d.Err(); err != nil {
		return ckptCert{}, err
	}
	if len(h) != sha256.Size {
		return ckptCert{}, fmt.Errorf("pbft: cert digest length %d", len(h))
	}
	copy(c.Digest[:], h)
	if n < 0 || n > maxCertVotes {
		return ckptCert{}, fmt.Errorf("pbft: cert with %d votes", n)
	}
	for i := 0; i < n; i++ {
		var v certVote
		v.Sender = types.ProcessID(d.Int())
		v.Sig = append([]byte(nil), d.BytesField()...)
		if err := d.Err(); err != nil {
			return ckptCert{}, err
		}
		c.Votes = append(c.Votes, v)
	}
	return c, nil
}

func encodeStateRespPayload(cert ckptCert, state []byte) []byte {
	e := wire.NewEncoder(256 + len(state))
	encodeCkptCert(e, cert)
	e.BytesField(state)
	return e.Bytes()
}

func decodeStateRespPayload(b []byte) (ckptCert, []byte, error) {
	d := wire.NewDecoder(b)
	cert, err := decodeCkptCert(d)
	if err != nil {
		return ckptCert{}, nil, err
	}
	state := append([]byte(nil), d.BytesField()...)
	if err := d.Finish(); err != nil {
		return ckptCert{}, nil, fmt.Errorf("pbft: decode state resp: %w", err)
	}
	return cert, state, nil
}

// Footprint reports the sizes checkpointing bounds, for tests and
// monitoring (updated at each stable-checkpoint advance).
type Footprint struct {
	StableSeq types.SeqNum // sequence number of the stable checkpoint
	Slots     int          // slot records retained
}

// Footprint returns the replica's log sizes as of the last stable advance.
func (r *Replica) Footprint() Footprint {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.fp
}

func (r *Replica) updateFootprint() {
	fp := Footprint{StableSeq: r.stable.Seq, Slots: len(r.slots)}
	r.statsMu.Lock()
	r.fp = fp
	r.statsMu.Unlock()
}

// ckptEnabled reports whether this replica checkpoints (the engine resolves
// the interval to 0 without a Snapshotter state machine).
func (r *Replica) ckptEnabled() bool {
	return r.ckptInterval > 0
}

// takeCheckpoint snapshots at sequence n, broadcasts a signed CHECKPOINT,
// and records our own vote.
func (r *Replica) takeCheckpoint(n types.SeqNum) {
	state := r.eng.Snapshot()
	r.ownStates[n] = state
	digest := sha256.Sum256(state)
	sig := r.sign(signedBytes(kindCheckpoint, r.view, n, digest[:]))
	msg := encodeMsg(kindCheckpoint, r.view, n, digest[:], sig)
	_ = transport.Broadcast(r.tr, r.m.Others(r.Self()), msg)
	r.mx.ckptTaken.Inc()
	r.mx.trace.Record("checkpoint", "seq %d digest %x", n, digest[:4])
	r.recordCkptVote(r.Self(), n, ckptVote{digest: digest, sig: sig})
}

func (r *Replica) handleCheckpoint(from types.ProcessID, n types.SeqNum, payload, sig []byte) {
	if len(payload) != sha256.Size {
		return
	}
	var digest [sha256.Size]byte
	copy(digest[:], payload)
	r.recordCkptVote(from, n, ckptVote{digest: digest, sig: sig})
}

// recordCkptVote files one checkpoint vote; 2f+1 matching votes advance the
// stable checkpoint (or, if they prove the cluster is past us, trigger a
// state fetch).
func (r *Replica) recordCkptVote(from types.ProcessID, n types.SeqNum, vote ckptVote) {
	if !r.ckptEnabled() || n == 0 || n <= r.stable.Seq {
		return
	}
	if uint64(n)%uint64(r.ckptInterval) != 0 {
		return // off-boundary: not a checkpoint any correct replica takes
	}
	votes := r.ckptVotes[n]
	if votes == nil {
		votes = make(map[types.ProcessID]ckptVote)
		r.ckptVotes[n] = votes
	}
	if _, dup := votes[from]; dup {
		return
	}
	votes[from] = vote

	same := make([]certVote, 0, len(votes))
	for p, v := range votes {
		if v.digest == vote.digest {
			same = append(same, certVote{Sender: p, Sig: v.sig})
		}
	}
	if len(same) < r.m.Quorum() {
		return
	}
	cert := ckptCert{Seq: n, Digest: vote.digest, Votes: same}
	if n >= r.execNext {
		// Proof the cluster executed past us. Ask for the state; each
		// further vote will land here again, which doubles as the retry.
		r.broadcast(kindStateFetch, n, nil)
		return
	}
	state := r.ownStates[n]
	if state == nil {
		return
	}
	r.advanceStable(cert, state)
}

// advanceStable installs a stable checkpoint we hold the state for and
// releases every slot it subsumes.
func (r *Replica) advanceStable(cert ckptCert, state []byte) {
	if cert.Seq <= r.stable.Seq {
		return
	}
	r.stable = cert
	r.stableState = state
	for n := range r.slots {
		if n <= cert.Seq {
			delete(r.slots, n)
		}
	}
	for n := range r.ckptVotes {
		if n <= cert.Seq {
			delete(r.ckptVotes, n)
		}
	}
	for n := range r.ownStates {
		if n <= cert.Seq {
			delete(r.ownStates, n)
		}
	}
	r.mx.ckptStable.Inc()
	r.mx.openSlots.Set(int64(len(r.slots)))
	r.mx.trace.Record("checkpoint-stable", "seq %d stable (%d votes), slots released", cert.Seq, len(cert.Votes))
	r.lg.Info("checkpoint stable", "view", r.view, "seq", cert.Seq, "votes", len(cert.Votes), "slots", len(r.slots))
	r.updateFootprint()
}

// verifyCkptCert checks 2f+1 distinct member signatures over the
// certificate's (seq, digest).
func (r *Replica) verifyCkptCert(cert ckptCert) error {
	if len(cert.Votes) < r.m.Quorum() {
		return fmt.Errorf("pbft: cert with %d votes", len(cert.Votes))
	}
	signed := signedBytes(kindCheckpoint, r.view, cert.Seq, cert.Digest[:])
	seen := make(map[types.ProcessID]bool, len(cert.Votes))
	for _, v := range cert.Votes {
		if seen[v.Sender] || !r.m.Contains(v.Sender) {
			return fmt.Errorf("pbft: bad cert voter %v", v.Sender)
		}
		seen[v.Sender] = true
		if err := r.verify(v.Sender, signed, v.Sig); err != nil {
			return err
		}
	}
	return nil
}

func (r *Replica) handleStateFetch(from types.ProcessID, n types.SeqNum) {
	if r.stable.Seq < n || r.stableState == nil {
		return
	}
	payload := encodeStateRespPayload(r.stable, r.stableState)
	sig := r.sign(signedBytes(kindStateResp, r.view, r.stable.Seq, payload))
	_ = r.tr.Send(from, encodeMsg(kindStateResp, r.view, r.stable.Seq, payload, sig))
}

// handleStateResp verifies and installs a stable checkpoint ahead of our
// execution: certificate signatures, digest over the payload, then the
// state machine and client table; execution resumes just past it.
func (r *Replica) handleStateResp(payload []byte) {
	cert, state, err := decodeStateRespPayload(payload)
	if err != nil || !r.ckptEnabled() {
		return
	}
	if cert.Seq < r.execNext {
		return // already there (or past it)
	}
	if r.verifyCkptCert(cert) != nil {
		return
	}
	if sha256.Sum256(state) != cert.Digest {
		return
	}
	if r.eng.Restore(state) != nil {
		return
	}
	r.execNext = cert.Seq + 1
	r.mx.stateTransfers.Inc()
	r.mx.trace.Record("state-transfer", "installed checkpoint seq %d (%d bytes)", cert.Seq, len(state))
	r.lg.Info("state transfer installed", "view", r.view, "seq", cert.Seq, "bytes", len(state))
	if r.nextSeq < cert.Seq {
		r.nextSeq = cert.Seq
	}
	r.advanceStable(cert, state)
	// Anything already buffered above the checkpoint may now be executable.
	r.progress(r.execNext, r.slot(r.execNext))
}
