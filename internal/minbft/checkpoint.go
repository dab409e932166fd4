package minbft

// Checkpointing, log garbage collection, and state transfer.
//
// Every K executed batches (K = WithCheckpointInterval, default
// smr.DefaultCheckpointInterval = 128) a replica snapshots its state machine plus
// client table, broadcasts an attested CHECKPOINT(count, digest), and
// collects matching votes. f+1 matching votes make the checkpoint *stable*:
// at least one correct replica holds that state, so everything the
// checkpoint subsumes — old accepted prepares, old protocol messages in the
// fetch store — can be released, and any replica can later verify the state
// against the certificate alone.
//
// Counting: execCount numbers the batches with at least one fresh (not yet
// executed) request, in total order. Both execution paths (tryExecute and
// the view-change union replay) count by the same rule, and freshness at a
// batch's position is a function of the executed prefix alone, so every
// correct replica agrees on the state at count C — which is what makes a
// digest vote at a count meaningful.
//
// State transfer: a replica that proves to be behind a stable checkpoint —
// f+1 checkpoint votes beyond its execution count, a view-change quorum
// whose certificates are ahead of it, or a fetch that peers answer with
// "garbage-collected" — requests the latest stable checkpoint, verifies the
// certificate (f+1 UIs over the digest) and the payload against the digest,
// installs it, and advances its per-peer UI cursors to each certificate
// member's checkpoint attestation: messages below are subsumed by the state
// (skipping them is omission, never equivocation — the UIs still bind one
// body per counter value).
//
// Restart: a replica with a data dir persists its stable checkpoint
// (persist.go) and announces RESTART on startup — an attested counter-jump
// notice letting peers disavow attested-but-undelivered pre-crash messages
// and push the current NEW-VIEW and stable checkpoint to the rejoiner.

import (
	"crypto/sha256"
	"fmt"

	"unidir/internal/transport"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// --- wire ---

// checkpointMsg is the attested body of a CHECKPOINT: the replica's state
// digest after executing `Count` fresh batches.
type checkpointMsg struct {
	Count  uint64
	Digest [sha256.Size]byte
}

func (c checkpointMsg) encodeBody() []byte {
	e := wire.NewEncoder(48)
	e.Uint64(c.Count)
	e.BytesField(c.Digest[:])
	return e.Bytes()
}

func decodeCheckpointBody(b []byte) (checkpointMsg, error) {
	d := wire.NewDecoder(b)
	var c checkpointMsg
	c.Count = d.Uint64()
	h := d.BytesField()
	if err := d.Finish(); err != nil {
		return checkpointMsg{}, fmt.Errorf("minbft: decode checkpoint: %w", err)
	}
	if len(h) != sha256.Size {
		return checkpointMsg{}, fmt.Errorf("minbft: checkpoint digest length %d", len(h))
	}
	copy(c.Digest[:], h)
	return c, nil
}

// maxCertVotes bounds decoded certificate vote lists (defensive; a valid
// cert never carries more votes than replicas).
const maxCertVotes = 1 << 10

// signedCkpt is one checkpoint vote as evidence: sender, raw body, UI.
type signedCkpt struct {
	Sender types.ProcessID
	Body   []byte
	UI     trinc.Attestation
}

// ckptCert is a stable-checkpoint certificate: f+1 (or more — late matching
// votes keep extending it, so it eventually covers every correct peer, which
// is what the cursor-skip after a state install relies on) checkpoint votes
// agreeing on (Count, Digest).
type ckptCert struct {
	Count  uint64
	Digest [sha256.Size]byte
	Votes  []signedCkpt
}

func encodeCkptCert(e *wire.Encoder, c ckptCert) {
	e.Uint64(c.Count)
	e.BytesField(c.Digest[:])
	e.Int(len(c.Votes))
	for _, v := range c.Votes {
		e.Int(int(v.Sender))
		e.BytesField(v.Body)
		e.BytesField(v.UI.Encode())
	}
}

func decodeCkptCert(d *wire.Decoder, maxVotes int) (ckptCert, error) {
	var c ckptCert
	c.Count = d.Uint64()
	h := d.BytesField()
	n := d.Int()
	if err := d.Err(); err != nil {
		return ckptCert{}, err
	}
	if len(h) != sha256.Size {
		return ckptCert{}, fmt.Errorf("minbft: cert digest length %d", len(h))
	}
	copy(c.Digest[:], h)
	if n < 0 || n > maxVotes {
		return ckptCert{}, fmt.Errorf("minbft: cert with %d votes", n)
	}
	for i := 0; i < n; i++ {
		var v signedCkpt
		v.Sender = types.ProcessID(d.Int())
		v.Body = append([]byte(nil), d.BytesField()...)
		attBytes := d.BytesField()
		if err := d.Err(); err != nil {
			return ckptCert{}, err
		}
		att, err := trinc.DecodeAttestation(attBytes)
		if err != nil {
			return ckptCert{}, err
		}
		v.UI = att
		c.Votes = append(c.Votes, v)
	}
	return c, nil
}

// stateFetch body: the minimum stable-checkpoint count wanted.
func encodeStateFetchBody(count uint64) []byte {
	e := wire.NewEncoder(8)
	e.Uint64(count)
	return e.Bytes()
}

func decodeStateFetchBody(b []byte) (uint64, error) {
	d := wire.NewDecoder(b)
	count := d.Uint64()
	if err := d.Finish(); err != nil {
		return 0, fmt.Errorf("minbft: decode state fetch: %w", err)
	}
	return count, nil
}

// stateResp body: a stable-checkpoint certificate plus the state payload it
// certifies. Self-certifying (the cert's UIs), so it needs no outer UI.
func encodeStateRespBody(cert ckptCert, state []byte) []byte {
	e := wire.NewEncoder(256 + len(state))
	encodeCkptCert(e, cert)
	e.BytesField(state)
	return e.Bytes()
}

func decodeStateRespBody(b []byte, maxVotes int) (ckptCert, []byte, error) {
	d := wire.NewDecoder(b)
	cert, err := decodeCkptCert(d, maxVotes)
	if err != nil {
		return ckptCert{}, nil, err
	}
	state := append([]byte(nil), d.BytesField()...)
	if err := d.Finish(); err != nil {
		return ckptCert{}, nil, fmt.Errorf("minbft: decode state resp: %w", err)
	}
	return cert, state, nil
}

// restart body: the execution count the rejoiner restored to
// (informational; the attested kind is what matters).
func encodeRestartBody(count uint64) []byte {
	e := wire.NewEncoder(8)
	e.Uint64(count)
	return e.Bytes()
}

func decodeRestartBody(b []byte) (uint64, error) {
	d := wire.NewDecoder(b)
	count := d.Uint64()
	if err := d.Finish(); err != nil {
		return 0, fmt.Errorf("minbft: decode restart: %w", err)
	}
	return count, nil
}

// --- checkpoint logic ---

// Footprint reports the sizes of the logs checkpointing bounds, for tests
// and monitoring. Updated whenever the stable checkpoint advances (post-GC
// values); read via Replica.Footprint.
type Footprint struct {
	StableCount uint64 // execution count of the stable checkpoint
	AcceptedLog int    // accepted-prepare log entries retained
	Entries     int    // per-slot entry records retained
	MsgStore    int    // protocol messages retained for the fetch protocol
}

// Footprint returns the replica's log sizes as of the last stable-checkpoint
// advance.
func (r *Replica) Footprint() Footprint {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.fp
}

func (r *Replica) updateFootprint() {
	n := 0
	for _, bySeq := range r.msgStore {
		n += len(bySeq)
	}
	fp := Footprint{
		StableCount: r.stable.Count,
		AcceptedLog: len(r.acceptedLog),
		Entries:     len(r.entries),
		MsgStore:    n,
	}
	r.statsMu.Lock()
	r.fp = fp
	r.statsMu.Unlock()
}

// ckptEnabled reports whether this replica checkpoints (the engine resolves
// the interval to 0 without a Snapshotter state machine).
func (r *Replica) ckptEnabled() bool {
	return r.ckptInterval > 0
}

// countExecuted advances the fresh-batch execution count after a batch with
// at least one fresh request was applied, checkpointing on interval
// boundaries. Both execution paths (normal case and view-change replay)
// call it under the same rule, keeping the count — and therefore the state
// digest voted at each count — consistent across replicas.
func (r *Replica) countExecuted() {
	r.execCount++
	if r.ckptEnabled() && r.execCount%uint64(r.ckptInterval) == 0 {
		r.takeCheckpoint()
	}
}

// takeCheckpoint snapshots the combined state, broadcasts an attested
// CHECKPOINT, and records our own vote.
func (r *Replica) takeCheckpoint() {
	state := r.eng.Snapshot()
	r.ownStates[r.execCount] = state
	c := checkpointMsg{Count: r.execCount, Digest: sha256.Sum256(state)}
	body := c.encodeBody()
	ui, err := r.attestAndSend(kindCheckpoint, body)
	if err != nil {
		return
	}
	r.mx.ckptTaken.Inc()
	r.mx.trace.Record("checkpoint", "count %d digest %x", c.Count, c.Digest[:4])
	r.recordCkptVote(r.Self(), signedCkpt{Sender: r.Self(), Body: body, UI: ui})
}

func (r *Replica) handleCheckpoint(from types.ProcessID, msg peerMsg) {
	r.recordCkptVote(from, signedCkpt{Sender: from, Body: msg.body, UI: msg.ui})
}

// recordCkptVote files one checkpoint vote and advances the stable
// checkpoint when f+1 votes agree on (count, digest). A quorum at a count
// beyond our own execution proves the cluster moved past us: request the
// state instead of adopting a digest we cannot produce.
func (r *Replica) recordCkptVote(from types.ProcessID, vote signedCkpt) {
	c, err := decodeCheckpointBody(vote.Body)
	if err != nil || c.Count == 0 {
		return
	}
	if r.ckptInterval > 0 && c.Count%uint64(r.ckptInterval) != 0 {
		return // off-boundary count: not a checkpoint any correct replica takes
	}
	if c.Count <= r.stable.Count {
		// Late vote for the current stable checkpoint: extend the cert so
		// its cursor coverage grows toward all correct peers.
		if c.Count == r.stable.Count && c.Digest == r.stable.Digest {
			r.extendStableCert(vote)
		}
		return
	}
	votes := r.ckptVotes[c.Count]
	if votes == nil {
		votes = make(map[types.ProcessID]signedCkpt)
		r.ckptVotes[c.Count] = votes
	}
	if _, dup := votes[from]; dup {
		return
	}
	votes[from] = vote

	same := make([]signedCkpt, 0, len(votes))
	for _, v := range votes {
		cv, err := decodeCheckpointBody(v.Body)
		if err != nil || cv.Digest != c.Digest {
			continue
		}
		same = append(same, v)
	}
	if len(same) < r.m.FPlusOne() {
		return
	}
	cert := ckptCert{Count: c.Count, Digest: c.Digest, Votes: same}
	if c.Count > r.execCount {
		r.requestState(c.Count)
		return
	}
	state := r.ownStates[c.Count]
	if state == nil {
		return // interval raced a reconfiguration; the next boundary catches up
	}
	r.advanceStable(cert, state)
}

// extendStableCert adds a late matching vote to the stable certificate.
func (r *Replica) extendStableCert(vote signedCkpt) {
	for _, v := range r.stable.Votes {
		if v.Sender == vote.Sender {
			return
		}
	}
	if vote.UI.Trinket != vote.Sender || vote.UI.Counter != usigCounter {
		return
	}
	if r.checkUI(vote.UI, kindCheckpoint, vote.Body) != nil {
		return
	}
	r.stable.Votes = append(r.stable.Votes, vote)
	if r.dataDir != "" {
		r.persistCheckpoint()
	}
}

// advanceStable installs a new stable checkpoint we hold the state for, and
// garbage-collects everything it subsumes:
//
//   - accepted-prepare log entries whose every request is stale — their
//     effects (and the dedup entries guarding re-execution) travel inside
//     the checkpoint, so view changes no longer need them;
//   - executed per-slot entries and their prepOrder prefix;
//   - the fetch message store below the *previous* stable checkpoint's vote
//     attestations — a two-interval window, so moderately lagging peers can
//     still gap-fill directly while memory stays bounded.
func (r *Replica) advanceStable(cert ckptCert, state []byte) {
	if cert.Count <= r.stable.Count {
		return
	}
	prevVotes := r.stable.Votes
	r.stable = cert
	r.stableState = state

	for _, v := range prevVotes {
		if v.UI.Seq > r.gcVoteSeqs[v.Sender] {
			r.gcVoteSeqs[v.Sender] = v.UI.Seq
		}
	}
	for p, watermark := range r.gcVoteSeqs {
		bySeq := r.msgStore[p]
		for s := range bySeq {
			if s <= watermark {
				delete(bySeq, s)
			}
		}
	}

	kept := make([]logEntry, 0, len(r.acceptedLog))
	for _, le := range r.acceptedLog {
		if r.eng.AnyFresh(le.Reqs) {
			kept = append(kept, le)
		}
	}
	r.acceptedLog = kept

	if r.execIdx > 0 {
		for _, key := range r.prepOrder[:r.execIdx] {
			delete(r.entries, key)
			if key.view == r.view && key.seq > r.gcSeqFloor {
				r.gcSeqFloor = key.seq
			}
		}
		// orderBase keeps the positions queued leased reads wait for
		// (orderer.ReadPoint) where they were while the slice is cut.
		rest := make([]entryKey, len(r.prepOrder)-r.execIdx)
		copy(rest, r.prepOrder[r.execIdx:])
		r.orderBase += uint64(r.execIdx)
		r.prepOrder = rest
		r.execIdx = 0
	}

	for count := range r.ckptVotes {
		if count <= cert.Count {
			delete(r.ckptVotes, count)
		}
	}
	for count := range r.ownStates {
		if count <= cert.Count {
			delete(r.ownStates, count)
		}
	}

	if r.dataDir != "" {
		r.persistCheckpoint()
	}
	r.mx.ckptStable.Inc()
	r.mx.trace.Record("checkpoint-stable", "count %d stable (%d votes), logs GC'd", cert.Count, len(cert.Votes))
	r.updateFootprint()
}

// verifyCkptCertVotes checks a certificate's evidence: f+1 distinct member
// votes whose bodies state exactly (Count, Digest), each UI genuine.
func (r *Replica) verifyCkptCertVotes(cert ckptCert) error {
	if len(cert.Votes) < r.m.FPlusOne() {
		return fmt.Errorf("minbft: cert with %d votes", len(cert.Votes))
	}
	seen := make(map[types.ProcessID]bool, len(cert.Votes))
	batch := make([]trinc.Attested, 0, len(cert.Votes))
	encs := make([]*wire.Encoder, 0, len(cert.Votes))
	defer func() {
		for _, e := range encs {
			wire.PutEncoder(e)
		}
	}()
	for _, v := range cert.Votes {
		if seen[v.Sender] || !r.m.Contains(v.Sender) {
			return fmt.Errorf("minbft: bad cert voter %v", v.Sender)
		}
		seen[v.Sender] = true
		if v.UI.Trinket != v.Sender || v.UI.Counter != usigCounter {
			return fmt.Errorf("minbft: cert vote UI mismatch")
		}
		body, err := decodeCheckpointBody(v.Body)
		if err != nil || body.Count != cert.Count || body.Digest != cert.Digest {
			return fmt.Errorf("minbft: cert vote body mismatch")
		}
		e := wire.GetEncoder()
		appendUIBinding(e, kindCheckpoint, v.Body)
		encs = append(encs, e)
		batch = append(batch, trinc.Attested{Att: v.UI, Msg: e.Bytes()})
	}
	return r.ver.CheckMessages(batch)
}

// --- state transfer ---

// requestState starts (or escalates) a state fetch for a stable checkpoint
// at >= count, retried on a timer until our execution count catches up.
func (r *Replica) requestState(count uint64) {
	if count <= r.execCount || !r.ckptEnabled() {
		return
	}
	if r.stateTarget >= count {
		return // already chasing this or a later checkpoint
	}
	r.stateTarget = count
	r.rdyST.Store(true)
	r.broadcastStateFetch()
	r.deadlines.After(r.reqTimeout, timerEvent{kind: 's', seq: types.SeqNum(count)})
}

func (r *Replica) broadcastStateFetch() {
	body := encodeStateFetchBody(r.stateTarget)
	_ = transport.Broadcast(r.tr, r.m.Others(r.Self()), encodeEnvelope(kindStateFetch, body, nil))
}

func (r *Replica) handleStateFetch(from types.ProcessID, body []byte) {
	count, err := decodeStateFetchBody(body)
	if err != nil || !r.m.Contains(from) {
		return
	}
	if r.stable.Count == 0 || r.stable.Count < count || r.stableState == nil {
		return
	}
	r.sendStableState(from)
}

// sendStableState ships our stable checkpoint (cert + state) to one peer.
func (r *Replica) sendStableState(to types.ProcessID) {
	body := encodeStateRespBody(r.stable, r.stableState)
	_ = r.tr.Send(to, encodeEnvelope(kindStateResp, body, nil))
}

func (r *Replica) handleStateResp(body []byte) {
	cert, state, err := decodeStateRespBody(body, maxCertVotes)
	if err != nil {
		return
	}
	r.installCheckpoint(cert, state)
}

// installCheckpoint verifies and installs a stable checkpoint ahead of our
// execution: restore the state machine and client table, adopt the
// certificate, and advance each certificate member's UI cursor to its
// checkpoint attestation — everything below is subsumed by the installed
// state, and skipping it is omission (tolerated), never equivocation.
func (r *Replica) installCheckpoint(cert ckptCert, state []byte) {
	if !r.ckptEnabled() || cert.Count <= r.execCount {
		return
	}
	if r.verifyCkptCertVotes(cert) != nil {
		return
	}
	if sha256.Sum256(state) != cert.Digest {
		return
	}
	if r.eng.Restore(state) != nil {
		return
	}
	r.execCount = cert.Count
	r.mx.stateTransfers.Inc()
	r.mx.trace.Record("state-transfer", "installed checkpoint count %d (%d bytes)", cert.Count, len(state))
	if r.stateTarget <= r.execCount {
		r.stateTarget = 0
		r.rdyST.Store(false)
	}
	// Adopt via advanceStable for the shared GC + persist path.
	r.advanceStable(cert, state)
	for _, v := range cert.Votes {
		if v.UI.Seq > r.lastUI[v.Sender] {
			buf := r.uiBuffer[v.Sender]
			for s := range buf {
				if s <= v.UI.Seq {
					delete(buf, s)
				}
			}
			r.lastUI[v.Sender] = v.UI.Seq
		}
	}
	for _, v := range cert.Votes {
		r.drainBuffer(v.Sender)
	}
	if r.pendingNV != nil && r.pendingNV.NewView > r.view {
		nv, raw := *r.pendingNV, r.pendingNVRaw
		r.pendingNV, r.pendingNVRaw = nil, nil
		r.installView(nv, raw)
	}
	r.updateFootprint()
}

// --- restart ---

// sendRestart announces an attested counter jump after a crash-restart:
// receivers advance their cursor for us past any attested-but-undelivered
// pre-crash messages (which would otherwise stall their per-peer ordered
// processing forever) and push the current NEW-VIEW and stable checkpoint
// back to help us rejoin.
func (r *Replica) sendRestart() {
	r.mx.trace.Record("restart", "announcing restart at count %d", r.execCount)
	_, _ = r.attestAndSend(kindRestart, encodeRestartBody(r.execCount))
}

func (r *Replica) handleRestart(from types.ProcessID, msg peerMsg) {
	count, err := decodeRestartBody(msg.body)
	if err != nil {
		return
	}
	// Help the rejoiner: current view evidence, then current state.
	if r.lastNVRaw != nil {
		_ = r.tr.Send(from, encodeEnvelope(kindFetchResp, r.lastNVRaw, nil))
	}
	if r.stable.Count > count && r.stableState != nil {
		r.sendStableState(from)
	}
}
