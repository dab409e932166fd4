// Package pbft implements the normal-case operation of PBFT (Castro &
// Liskov, OSDI'99) with n = 3f+1 replicas and signed messages. It is the
// library's no-trusted-hardware SMR baseline: three communication phases
// (PRE-PREPARE, PREPARE, COMMIT) and quorums of 2f+1, against MinBFT's two
// phases and f+1 quorums at n = 2f+1 — the cost difference the paper's
// hardware classification translates into at the application level.
//
// The primary batches like MinBFT's: all pending requests are packed into
// one PRE-PREPARE (capped by smr.EngineConfig.BatchSize), so the three-phase
// exchange and its two 2f+1 quorums are paid once per batch. A batch
// occupies one sequence number; requests execute in in-batch order with
// per-client dedup, so batching changes the amortization, not the
// properties (DESIGN.md §5).
//
// Signatures are checked as the quorums need them (vote.go, DESIGN.md §5): a
// PRE-PREPARE is verified on arrival, once nothing cheaper has dropped it; a
// PREPARE or COMMIT is held unverified under its sender, and the slot's
// tally verifies held votes for the bound digest only until it has 2f+1.
// Votes beyond the quorum are never verified: 16 verifications per batch at
// n = 4 instead of one per message received (24).
//
// Checkpointing (checkpoint.go, and the engine's checkpoint plane): every K
// executed batches the replica snapshots its state and broadcasts a signed
// CHECKPOINT; 2f+1 matching votes make it stable, releasing all slots below
// and enabling state transfer for replicas the quorum has left behind.
//
// Scope note (DESIGN.md): view changes are not implemented; the benchmarks
// compare normal-case behavior, and the liveness tests for leader failure
// live in the MinBFT package. The view is fixed at 0.
package pbft

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"unidir/internal/obs/tracing"
	"unidir/internal/sig"
	"unidir/internal/smr"
	"unidir/internal/transport"
	"unidir/internal/types"
	"unidir/internal/wire"
)

const (
	kindRequest byte = iota + 1
	kindPrePrepare
	kindPrepare
	kindCommit
	kindCheckpoint   // signed state digest at a sequence-number boundary
	kindStateFetch   // the engine's unsigned query for a stable checkpoint
	kindStateResp    // the engine's stable cert (2f+1 signed votes) + state, self-certifying
	kindLeaseRequest // primary's signed lease solicitation (n: lease round)
	kindLeaseGrant   // backup's signed lease promise (n: granted round)
	kindReadRequest  // client read-only request, served off the ordering path
)

const sigDomain = "unidir/pbft/v1"

// Replica is one PBFT replica: the ordering core of an smr.Engine. The
// engine owns the request, read, reply and tracing planes; what is here is
// what doing without trusted hardware costs — signed messages, 2f+1 quorums
// over three phases — plus the lease protocol and checkpoint votes. The
// smr.Loop drives both. Create with New, stop with Close.
type Replica struct {
	m    types.Membership
	tr   transport.Transport
	ring *sig.Keyring
	eng  *smr.Engine
	loop *smr.Loop[timerEvent]

	// State below is owned by the run goroutine.
	view     types.View
	nextSeq  types.SeqNum // primary's last assignment
	execNext types.SeqNum // next sequence number to execute
	slots    map[types.SeqNum]*slot

	// The lease protocol (lease.go); the engine keeps the tally.
	leaseTerm  time.Duration // 0: leases disabled
	leaseRound types.SeqNum  // round counter of our outstanding LEASE-REQUEST
	renewArmed bool          // a renewal timer is outstanding

	statsMu sync.Mutex
	fp      Footprint

	mx metrics // all-nil (free no-ops) without EngineConfig.Metrics
}

// timerEvent is PBFT's one timeout: the lease renewal.
type timerEvent struct{}

type slot struct {
	smr.BatchTrace
	reqs      []smr.Request // nil until the pre-prepare binds the batch
	digest    [sha256.Size]byte
	votes     []vote // PREPAREs by sender, then COMMITs by sender; nil once committed
	prepared  bool
	committed bool
	executed  bool
}

// Option configures a Replica.
type Option func(*smr.EngineConfig)

// WithEngineConfig sets the replica's settings, all of which PBFT shares
// with MinBFT: batching, pacing, admission, leases, checkpoints, metrics,
// tracing and the execution log (internal/cluster translates a Spec into
// one). With n = 3f+1 and uniform admission bounds, at least f+1 correct
// replicas shed together and the client observes a quorum-backed retryable
// smr.ErrOverloaded.
func WithEngineConfig(cfg smr.EngineConfig) Option {
	return func(c *smr.EngineConfig) { *c = cfg }
}

// New starts a replica (requires n >= 3f+1).
func New(m types.Membership, tr transport.Transport, ring *sig.Keyring, sm smr.StateMachine, opts ...Option) (*Replica, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.N < 3*m.F+1 {
		return nil, fmt.Errorf("pbft: requires n >= 3f+1, got n=%d f=%d", m.N, m.F)
	}
	if ring.Self() != tr.Self() {
		return nil, fmt.Errorf("pbft: keyring %v != endpoint %v", ring.Self(), tr.Self())
	}
	var cfg smr.EngineConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	r := &Replica{
		m:        m,
		tr:       tr,
		ring:     ring,
		execNext: 1,
		slots:    make(map[types.SeqNum]*slot),
	}
	// Pacing waits on 2f peers, the votes a batch needs. A lease takes 2f+1
	// grants: that quorum already intersects every view-change quorum in a
	// correct replica. 2f+1 signed checkpoint votes make a certificate.
	r.eng = smr.NewEngine("pbft", orderer{r}, tr, sm, smr.SystemClock,
		m.Others(tr.Self()), 2*m.F, m.Quorum(), m.Quorum(), "", cfg)
	r.loop = smr.NewLoop[timerEvent](r.eng, orderer{r})
	r.leaseTerm = r.eng.LeaseTerm()
	r.initMetrics(cfg.Metrics)
	r.loop.Start()
	return r, nil
}

// Self returns the replica's process ID.
func (r *Replica) Self() types.ProcessID { return r.tr.Self() }

// Close stops the replica's goroutines and then its timer plane, so nothing
// fires once Close has returned.
func (r *Replica) Close() error {
	r.loop.Close()
	return nil
}

// Start is the loop's first act on the run goroutine: the primary solicits
// its first lease so the read fast path is live before the first read
// arrives.
func (r orderer) Start() { r.renewLease() }

// HandleTimer renews the lease: the renewal timer fell due.
func (r orderer) HandleTimer(timerEvent) {
	r.renewArmed = false
	r.renewLease()
}

// --- wire ---

// appendSigned appends what a signature covers: kind, view, seq, and the
// digest for PREPARE/COMMIT/CHECKPOINT, or the full request bytes for
// PRE-PREPARE.
func appendSigned(e *wire.Encoder, kind byte, v types.View, n types.SeqNum, payload []byte) {
	e.String(sigDomain)
	e.Byte(kind)
	e.Uint64(uint64(v))
	e.Uint64(uint64(n))
	e.BytesField(payload)
}

func encodeMsg(kind byte, v types.View, n types.SeqNum, payload, signature []byte) []byte {
	e := wire.NewEncoder(48 + len(payload) + len(signature))
	e.Byte(kind)
	e.Uint64(uint64(v))
	e.Uint64(uint64(n))
	e.BytesField(payload)
	e.BytesField(signature)
	return e.Bytes()
}

func decodeMsg(b []byte) (kind byte, v types.View, n types.SeqNum, payload, signature []byte, err error) {
	d := wire.NewDecoder(b)
	kind = d.Byte()
	v = types.View(d.Uint64())
	n = types.SeqNum(d.Uint64())
	payload = append([]byte(nil), d.BytesField()...)
	signature = append([]byte(nil), d.BytesField()...)
	if err := d.Finish(); err != nil {
		return 0, 0, 0, nil, nil, fmt.Errorf("pbft: decode: %w", err)
	}
	return kind, v, n, payload, signature, nil
}

// EncodeRequestEnvelope wraps a client request for submission to replicas.
func EncodeRequestEnvelope(req smr.Request) []byte {
	return encodeMsg(kindRequest, 0, 0, req.Encode(), nil)
}

// EncodeReadRequestEnvelope wraps a client read for the fast path; pass it
// to smr.WithPipelineReadEncoder when building a pipelined client.
func EncodeReadRequestEnvelope(req smr.ReadRequest) []byte {
	return encodeMsg(kindReadRequest, 0, 0, req.Encode(), nil)
}

// EncodeReadBatchEnvelope wraps a coalesced batch of encoded reads; pass it
// to smr.WithPipelineReadBatchEncoder when building a pipelined client.
func EncodeReadBatchEnvelope(reqs [][]byte) []byte {
	return encodeMsg(kindReadRequest, 0, 0, smr.EncodeReadRequestBatch(reqs), nil)
}

// sign and verify are the replica's only keyring call sites, so the sig
// layer's work is countable here (there is no fastverify cache in front to
// publish the numbers). The statement both cover, (kind, r.view, n,
// payload), is transient, so it is built in a pooled encoder.
func (r *Replica) sign(kind byte, n types.SeqNum, payload []byte) []byte {
	e := wire.GetEncoder()
	appendSigned(e, kind, r.view, n, payload)
	r.mx.sigSigns.Inc()
	signature := r.ring.Sign(e.Bytes())
	wire.PutEncoder(e)
	return signature
}

func (r *Replica) verify(from types.ProcessID, kind byte, n types.SeqNum, payload, signature []byte) error {
	e := wire.GetEncoder()
	appendSigned(e, kind, r.view, n, payload)
	r.mx.sigVerifies.Inc()
	err := r.ring.Verify(from, e.Bytes(), signature)
	wire.PutEncoder(e)
	return err
}

func (r *Replica) broadcast(kind byte, n types.SeqNum, payload []byte) {
	r.broadcastTraced(kind, n, payload, tracing.Context{})
}

// broadcastTraced is broadcast with a trace context on the frames; a zero
// context degrades to frames byte-identical to the untraced path.
func (r *Replica) broadcastTraced(kind byte, n types.SeqNum, payload []byte, tc tracing.Context) {
	msg := encodeMsg(kind, r.view, n, payload, r.sign(kind, n, payload))
	_ = transport.BroadcastTraced(r.tr, r.m.Others(r.Self()), msg, tc)
}

// sendSigned signs and sends one message point-to-point (lease grants go
// only to the primary; everything quorum-forming is broadcast).
func (r *Replica) sendSigned(to types.ProcessID, kind byte, n types.SeqNum, payload []byte) {
	_ = r.tr.Send(to, encodeMsg(kind, r.view, n, payload, r.sign(kind, n, payload)))
}

// --- handlers ---

// HandleEnvelope decodes and dispatches one message the loop received. A
// replica message must be in the view and from a member; CHECKPOINT and the
// lease messages are rare and verified here, on arrival, while the ordering
// messages are verified where the slot needs them (handlePrePrepare,
// handleVote).
func (r orderer) HandleEnvelope(env transport.Envelope) {
	kind, v, n, payload, signature, err := decodeMsg(env.Payload)
	if err != nil {
		return
	}
	switch kind {
	case kindRequest:
		req, err := smr.DecodeRequest(payload)
		if err != nil {
			return
		}
		if r.eng.HandleRequest(req, env.Trace) {
			r.eng.MaybePropose() // a no-op on a backup, which waits for the primary's pre-prepare
		}
		return
	case kindReadRequest:
		r.eng.HandleRead(payload)
		return
	case kindStateFetch:
		r.eng.HandleStateFetch(env.From, payload)
		return
	case kindStateResp:
		r.eng.HandleStateResp(payload)
		return
	case kindPrePrepare, kindPrepare, kindCommit:
		if v != r.view || !r.m.Contains(env.From) {
			return
		}
	case kindCheckpoint, kindLeaseRequest, kindLeaseGrant:
		if v != r.view || !r.m.Contains(env.From) || r.verify(env.From, kind, n, payload, signature) != nil {
			return
		}
	default:
		return
	}
	switch kind {
	case kindPrePrepare:
		r.handlePrePrepare(env.From, n, payload, signature, env.Trace)
	case kindPrepare, kindCommit:
		r.handleVote(kind, env.From, n, payload, signature)
	case kindCheckpoint:
		r.handleCheckpoint(env.From, n, payload, signature)
	case kindLeaseRequest:
		r.handleLeaseRequest(env.From, n)
	case kindLeaseGrant:
		r.handleLeaseGrant(env.From, n)
	}
}

func (r *Replica) slot(n types.SeqNum) *slot {
	sl := r.slots[n]
	if sl == nil {
		sl = &slot{votes: make([]vote, 2*r.m.N)}
		r.slots[n] = sl
	}
	return sl
}

// bind gives a slot its batch. The primary's pre-prepare stands for its
// PREPARE, so the primary's prepare vote counts from here on.
func (r *Replica) bind(sl *slot, reqs []smr.Request, digest [sha256.Size]byte, tc tracing.Context) {
	sl.reqs, sl.digest = reqs, digest
	r.eng.BindBatch(&sl.BatchTrace, tc)
	sl.count(kindPrepare, r.m.Leader(r.view))
}

// handlePrePrepare binds a backup's slot to the primary's batch. Whatever
// would drop the pre-prepare is checked before its signature: a bound slot
// keeps its batch, so a repeat or a conflicting copy costs a lookup.
func (r *Replica) handlePrePrepare(from types.ProcessID, n types.SeqNum, payload, signature []byte, tc tracing.Context) {
	if r.m.Leader(r.view) != from || n == 0 || r.released(n) {
		return
	}
	if sl := r.slots[n]; sl != nil && sl.reqs != nil {
		return
	}
	if r.verify(from, kindPrePrepare, n, payload, signature) != nil {
		return
	}
	reqs, err := smr.DecodeRequests(payload, smr.MaxBatchSize)
	if err != nil {
		return
	}
	sl := r.slot(n)
	r.bind(sl, reqs, sha256.Sum256(payload), tc)
	sl.count(kindPrepare, r.Self())
	r.broadcast(kindPrepare, n, sl.digest[:])
	r.progress(n, sl)
}

// released reports whether slot n is at or below the stable checkpoint.
func (r *Replica) released(n types.SeqNum) bool { return uint64(n) <= r.eng.Stable().Count }

// progress advances a slot through prepared -> committed -> executed, then
// gives the primary a chance to propose the next accumulated batch.
func (r *Replica) progress(n types.SeqNum, sl *slot) {
	// Prepared: 2f+1 PREPAREs for the bound digest, the primary's
	// pre-prepare standing for its own.
	if !sl.prepared && sl.reqs != nil && r.tally(kindPrepare, n, sl) {
		sl.prepared = true
		sl.count(kindCommit, r.Self())
		r.broadcast(kindCommit, n, sl.digest[:])
	}
	if !sl.committed && sl.prepared && r.tally(kindCommit, n, sl) {
		sl.committed = true
		sl.votes = nil // what is still held is never verified
	}
	// Execute whole batches in contiguous sequence order.
	executed := false
	for {
		next := r.slots[r.execNext]
		if next == nil || !next.committed || next.executed || next.reqs == nil {
			break
		}
		next.executed = true
		seq := r.execNext
		r.execNext++
		r.eng.Execute(next.reqs, &next.BatchTrace)
		r.eng.Executed(uint64(seq))
		executed = true
	}
	if executed {
		r.mx.openSlots.Set(int64(len(r.slots)))
		r.eng.AfterExecute()
	}
}
