package smr

// The checkpoint plane (DESIGN.md §6): every checkpoint decision that does not
// depend on how a vote is authenticated.
//
// Cadence: the core reports each executed position (Executed) — MinBFT's
// fresh-batch count, PBFT's sequence number — and at every CheckpointInterval
// boundary the engine snapshots, digests and keeps its own state, and has the
// core authenticate and send its vote (Orderer.VoteCheckpoint).
//
// Tally: votes the core authenticated on the live path arrive through
// CheckpointVote. ckptQuorum matching votes at one position make a
// certificate — f+1 UI-attested votes in MinBFT, 2f+1 signed ones in PBFT —
// and the checkpoint is stable. Late matching votes extend the stable
// certificate, so it grows toward every correct voter (MinBFT's cursor skip
// after an install relies on that). A quorum at a position beyond execution
// proves the group moved past this replica: the engine fetches the state.
//
// Stable advance: votes and own snapshots at or below the new stable position
// are dropped, the checkpoint file is rewritten, and the core garbage-collects
// its own logs (Orderer.CheckpointStable).
//
// State transfer: STATE-FETCH(count) is unauthenticated and answered only for
// members; STATE-RESP(certificate, state) is self-certifying. A fetch is
// retried every stateFetchRetry on the engine's timer (armTimer/timerFired)
// until execution reaches the target. Install is: verify the certificate
// (size, distinct member voters, then the core's proofs), check the state
// against its digest, Restore.
//
// The checkpoint file: with a data dir, the stable certificate and its state
// are written to a temp file and renamed over checkpoint.bin at every stable
// advance and extension, and LoadCheckpoint reinstalls them at start through
// the same verification as a transfer.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"unidir/internal/transport"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// CkptVote is one checkpoint vote as certificate evidence: the voter and the
// proof its core produced for it (a UI in MinBFT, a signature in PBFT).
type CkptVote struct {
	Sender types.ProcessID
	Proof  []byte
}

// CkptCert is a stable-checkpoint certificate: at least a quorum of votes
// agreeing on the state digest at one executed position. Count 0 is "none".
type CkptCert struct {
	Count  uint64
	Digest [sha256.Size]byte
	Votes  []CkptVote
}

const (
	// maxCertVotes bounds decoded certificate vote lists (defensive; a valid
	// certificate never carries more votes than replicas).
	maxCertVotes = 1 << 10
	// stateFetchRetry is how often an unanswered state fetch is re-sent.
	stateFetchRetry = 500 * time.Millisecond

	ckptFileName = "checkpoint.bin"
	ckptMagic    = "unidir/smr/ckpt/v2"
)

// EncodeCkptCert appends the one wire form of a certificate.
func EncodeCkptCert(e *wire.Encoder, c CkptCert) {
	e.Uint64(c.Count)
	e.BytesField(c.Digest[:])
	e.Int(len(c.Votes))
	for _, v := range c.Votes {
		e.Int(int(v.Sender))
		e.BytesField(v.Proof)
	}
}

// DecodeCkptCert reads a certificate written by EncodeCkptCert. The proofs
// alias d's buffer.
func DecodeCkptCert(d *wire.Decoder) (CkptCert, error) {
	var c CkptCert
	c.Count = d.Uint64()
	h := d.BytesField()
	n := d.Int()
	if err := d.Err(); err != nil {
		return CkptCert{}, err
	}
	if len(h) != sha256.Size {
		return CkptCert{}, fmt.Errorf("smr: certificate digest length %d", len(h))
	}
	copy(c.Digest[:], h)
	if n < 0 || n > maxCertVotes {
		return CkptCert{}, fmt.Errorf("smr: certificate with %d votes", n)
	}
	for i := 0; i < n; i++ {
		c.Votes = append(c.Votes, CkptVote{Sender: types.ProcessID(d.Int()), Proof: d.BytesField()})
	}
	return c, d.Err()
}

// encodeStable is a STATE-RESP body, and the checkpoint file after its magic.
func encodeStable(e *wire.Encoder, cert CkptCert, state []byte) {
	EncodeCkptCert(e, cert)
	e.BytesField(state)
}

func decodeStable(d *wire.Decoder) (CkptCert, []byte, error) {
	cert, err := DecodeCkptCert(d)
	if err != nil {
		return CkptCert{}, nil, err
	}
	state := d.BytesField()
	if err := d.Finish(); err != nil {
		return CkptCert{}, nil, fmt.Errorf("smr: decode checkpoint: %w", err)
	}
	return cert, state, nil
}

// ckptBallot is one tallied vote.
type ckptBallot struct {
	digest [sha256.Size]byte
	proof  []byte
}

// ownCkpt is this replica's snapshot at one boundary, kept until stable.
type ownCkpt struct {
	state  []byte
	digest [sha256.Size]byte
}

// Executed reports that the core executed position pos of its checkpoint
// count, and checkpoints if pos is on an interval boundary.
func (e *Engine) Executed(pos uint64) {
	e.execPos = pos
	if e.fetchTarget != 0 && pos >= e.fetchTarget {
		e.endFetch()
	}
	if e.ckptInterval > 0 && pos%uint64(e.ckptInterval) == 0 {
		e.takeCheckpoint(pos)
	}
}

func (e *Engine) takeCheckpoint(pos uint64) {
	state := e.Snapshot()
	digest := sha256.Sum256(state)
	e.ckptOwn[pos] = ownCkpt{state: state, digest: digest}
	proof, ok := e.core.VoteCheckpoint(pos, digest)
	if !ok {
		return
	}
	e.mx.ckptTaken.Inc()
	e.mx.trace.Record("checkpoint", "count %d digest %x", pos, digest[:4])
	e.CheckpointVote(e.tr.Self(), pos, digest, proof)
}

// CheckpointVote files one vote the core has authenticated: from says the
// state at position count has this digest, and proof shows it.
func (e *Engine) CheckpointVote(from types.ProcessID, count uint64, digest [sha256.Size]byte, proof []byte) {
	if e.ckptInterval == 0 || count == 0 || count%uint64(e.ckptInterval) != 0 {
		return // off-boundary: not a checkpoint any correct replica takes
	}
	if count <= e.stable.Count {
		if count == e.stable.Count && digest == e.stable.Digest &&
			!slices.ContainsFunc(e.stable.Votes, func(v CkptVote) bool { return v.Sender == from }) {
			e.stable.Votes = append(e.stable.Votes, CkptVote{Sender: from, Proof: proof})
			e.persist()
		}
		return
	}
	tally := e.ckptTally[count]
	if tally == nil {
		tally = make(map[types.ProcessID]ckptBallot)
		e.ckptTally[count] = tally
	}
	if _, dup := tally[from]; dup {
		return
	}
	tally[from] = ckptBallot{digest: digest, proof: proof}
	var votes []CkptVote
	for p, b := range tally {
		if b.digest == digest {
			votes = append(votes, CkptVote{Sender: p, Proof: b.proof})
		}
	}
	if len(votes) < e.ckptQuorum {
		return
	}
	if count > e.execPos {
		e.RequestState(count)
		return
	}
	if own, ok := e.ckptOwn[count]; ok && own.digest == digest {
		e.advance(CkptCert{Count: count, Digest: digest, Votes: votes}, own.state, false)
	}
}

// advance makes cert, whose state this replica holds, the stable checkpoint.
func (e *Engine) advance(cert CkptCert, state []byte, installed bool) {
	prev := e.stable
	e.stable, e.stableState = cert, state
	for c := range e.ckptTally {
		if c <= cert.Count {
			delete(e.ckptTally, c)
		}
	}
	for c := range e.ckptOwn {
		if c <= cert.Count {
			delete(e.ckptOwn, c)
		}
	}
	e.persist()
	e.mx.ckptStable.Inc()
	e.mx.trace.Record("checkpoint-stable", "count %d stable (%d votes)", cert.Count, len(cert.Votes))
	e.core.CheckpointStable(prev, cert, installed)
}

// Stable returns the stable checkpoint certificate (Count 0: none yet).
func (e *Engine) Stable() CkptCert { return e.stable }

// VerifyCert checks a certificate from elsewhere: a quorum of distinct member
// voters, each proof accepted by the core.
func (e *Engine) VerifyCert(cert CkptCert) error {
	if len(cert.Votes) < e.ckptQuorum {
		return fmt.Errorf("smr: certificate with %d votes", len(cert.Votes))
	}
	seen := make(map[types.ProcessID]bool, len(cert.Votes))
	for _, v := range cert.Votes {
		if seen[v.Sender] || !e.member(v.Sender) {
			return fmt.Errorf("smr: bad certificate voter %v", v.Sender)
		}
		seen[v.Sender] = true
	}
	return e.core.VerifyCheckpoint(cert)
}

func (e *Engine) member(p types.ProcessID) bool {
	return p == e.tr.Self() || slices.Contains(e.peers, p)
}

// --- state transfer ---

// RequestState starts (or escalates) a fetch of a stable checkpoint at or
// beyond count, retried until execution reaches it.
func (e *Engine) RequestState(count uint64) {
	if e.ckptInterval == 0 || count <= e.execPos || count <= e.fetchTarget {
		return
	}
	e.fetchTarget = count
	e.fetching.Store(true)
	e.broadcastFetch()
}

func (e *Engine) broadcastFetch() {
	enc := wire.NewEncoder(8)
	enc.Uint64(e.fetchTarget)
	_ = transport.Broadcast(e.tr, e.peers, e.core.FrameState(false, enc.Bytes()))
	e.fetchAt = e.clock.Now().Add(stateFetchRetry)
	e.armTimer(stateFetchRetry)
}

func (e *Engine) endFetch() {
	e.fetchTarget = 0
	e.fetching.Store(false)
}

// Fetching reports whether a state transfer is in progress. Unlike the rest
// of the engine it is safe from any goroutine (readiness probes).
func (e *Engine) Fetching() bool { return e.fetching.Load() }

// HandleStateFetch serves the body of a STATE-FETCH from a member.
func (e *Engine) HandleStateFetch(from types.ProcessID, body []byte) {
	d := wire.NewDecoder(body)
	count := d.Uint64()
	if d.Finish() != nil || !e.member(from) {
		return
	}
	e.ServeState(from, count)
}

// ServeState sends the stable checkpoint to a peer if it is at least min.
func (e *Engine) ServeState(to types.ProcessID, min uint64) {
	if e.stableState == nil || e.stable.Count < min {
		return
	}
	enc := wire.NewEncoder(256 + len(e.stableState))
	encodeStable(enc, e.stable, e.stableState)
	_ = e.tr.Send(to, e.core.FrameState(true, enc.Bytes()))
}

// HandleStateResp installs the checkpoint of a STATE-RESP body if it is ahead
// of execution and verifies.
func (e *Engine) HandleStateResp(body []byte) {
	cert, state, err := decodeStable(wire.NewDecoder(body))
	if err != nil || e.ckptInterval == 0 || cert.Count <= e.execPos || e.adopt(cert, state) != nil {
		return
	}
	e.mx.stateTransfers.Inc()
	e.mx.trace.Record("state-transfer", "installed checkpoint count %d (%d bytes)", cert.Count, len(state))
	if e.fetchTarget <= e.execPos {
		e.endFetch()
	}
	e.advance(cert, state, true)
}

// adopt verifies a certificate and the state it certifies, then installs the
// state: execution resumes just past cert.Count.
func (e *Engine) adopt(cert CkptCert, state []byte) error {
	if err := e.VerifyCert(cert); err != nil {
		return err
	}
	if sha256.Sum256(state) != cert.Digest {
		return errors.New("smr: checkpoint state does not match its certificate")
	}
	if err := e.Restore(state); err != nil {
		return err
	}
	e.execPos = cert.Count
	return nil
}

// timerFired is the loop's answer to armTimer: whichever of the engine's
// deadlines is due — a fetch retry, the batch deadline or pacing recheck —
// runs.
func (e *Engine) timerFired() {
	if e.fetchTarget != 0 && !e.clock.Now().Before(e.fetchAt) {
		e.broadcastFetch()
	}
	if e.batchTimerArmed {
		e.batchTimerArmed = false
		e.MaybePropose()
	}
}

// --- the checkpoint file ---

// persist atomically replaces the checkpoint file with the stable
// checkpoint. Best-effort: a failure leaves the previous file, which is stale
// but safe (a restart just begins further behind).
func (e *Engine) persist() {
	if e.dataDir == "" {
		return
	}
	enc := wire.NewEncoder(256 + len(e.stableState))
	enc.String(ckptMagic)
	encodeStable(enc, e.stable, e.stableState)
	path := filepath.Join(e.dataDir, ckptFileName)
	if os.WriteFile(path+".tmp", enc.Bytes(), 0o600) == nil {
		_ = os.Rename(path+".tmp", path)
	}
}

// LoadCheckpoint reinstalls the checkpoint persisted under the data dir,
// verified like a state transfer, and reports whether there was one. A
// missing file is a fresh start; a corrupt, foreign or unverifiable one is an
// error (operator attention beats silently starting from empty state with a
// trusted counter that has already advanced). The core calls it once, before
// its event loop starts; it sees the install through CheckpointStable.
func (e *Engine) LoadCheckpoint() (bool, error) {
	if e.dataDir == "" {
		return false, nil
	}
	if e.snap == nil {
		return false, errors.New("smr: a data dir requires a snapshotting state machine (smr.Snapshotter)")
	}
	if err := os.MkdirAll(e.dataDir, 0o755); err != nil {
		return false, fmt.Errorf("smr: data dir: %w", err)
	}
	b, err := os.ReadFile(filepath.Join(e.dataDir, ckptFileName))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("smr: read checkpoint: %w", err)
	}
	d := wire.NewDecoder(b)
	if magic := d.String(); magic != ckptMagic {
		return false, fmt.Errorf("smr: checkpoint file magic %q", magic)
	}
	cert, state, err := decodeStable(d)
	if err == nil {
		err = e.adopt(cert, state)
	}
	if err != nil {
		return false, fmt.Errorf("smr: checkpoint file: %w", err)
	}
	e.stable, e.stableState = cert, state
	e.core.CheckpointStable(CkptCert{}, cert, true)
	return true, nil
}
