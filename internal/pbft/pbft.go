// Package pbft implements the normal-case operation of PBFT (Castro &
// Liskov, OSDI'99) with n = 3f+1 replicas and signed messages. It is the
// library's no-trusted-hardware SMR baseline: three communication phases
// (PRE-PREPARE, PREPARE, COMMIT) and quorums of 2f+1, against MinBFT's two
// phases and f+1 quorums at n = 2f+1 — the cost difference the paper's
// hardware classification translates into at the application level.
//
// The primary batches like MinBFT's: all pending requests are packed into
// one PRE-PREPARE (capped by WithBatchSize), so the three-phase exchange and
// its two 2f+1 quorums are paid once per batch. A batch occupies one
// sequence number; requests execute in in-batch order with per-client dedup,
// so batching changes the amortization, not the properties (DESIGN.md §5).
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
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"unidir/internal/obs"
	"unidir/internal/obs/tracing"
	"unidir/internal/sig"
	"unidir/internal/smr"
	"unidir/internal/syncx"
	"unidir/internal/transport"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// ErrClosed reports use of a closed replica.
var ErrClosed = errors.New("pbft: replica closed")

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
// over three phases — plus the lease protocol and checkpoint votes. Create
// with New, stop with Close.
type Replica struct {
	m    types.Membership
	tr   transport.Transport
	ring *sig.Keyring
	eng  *smr.Engine

	events    *syncx.Queue[event]
	wg        sync.WaitGroup
	cancel    context.CancelFunc
	closeOnce sync.Once

	// State below is owned by the run goroutine.
	deadlines *smr.Deadlines[timerEvent] // the 'e' and 'l' timeouts, on one runtime timer
	view      types.View
	nextSeq   types.SeqNum // primary's last assignment
	execNext  types.SeqNum // next sequence number to execute
	slots     map[types.SeqNum]*slot

	// The lease protocol (lease.go); the engine keeps the tally.
	leaseTerm  time.Duration // 0: leases disabled
	leaseRound types.SeqNum  // round counter of our outstanding LEASE-REQUEST
	renewArmed bool          // an 'l' renewal timer is outstanding

	statsMu sync.Mutex
	fp      Footprint

	mx metrics // all-nil (free no-ops) without WithMetrics
	lg *slog.Logger
}

// event is one unit of work for the run goroutine.
type event struct {
	env    *transport.Envelope
	tick   bool            // a queued deadline has passed: drain r.deadlines
	status chan obs.Status // introspection request; answered on the run goroutine (status.go)
}

type timerEvent struct {
	kind byte // 'e' engine timer, 'l' lease renewal
}

type slot struct {
	smr.BatchTrace
	reqs      []smr.Request // nil until the pre-prepare binds the batch
	digest    [sha256.Size]byte
	prepares  map[types.ProcessID]bool
	commits   map[types.ProcessID]bool
	prepared  bool
	committed bool
	executed  bool
}

// config is what the options fill in: the settings shared with MinBFT
// (smr.EngineConfig, which documents and defaults them) plus the logger.
type config struct {
	smr.EngineConfig
	lg *slog.Logger
}

// Option configures a Replica.
type Option func(*config)

// WithEngineConfig sets every shared setting at once (internal/cluster
// translates a Spec into one); the other options below set single fields.
func WithEngineConfig(cfg smr.EngineConfig) Option {
	return func(c *config) { c.EngineConfig = cfg }
}

// WithExecutionLog attaches a command log for consistency checks.
func WithExecutionLog(l *smr.ExecutionLog) Option {
	return func(c *config) { c.ExecutionLog = l }
}

// WithBatchSize caps how many pending requests the primary packs into one
// PRE-PREPARE (smr.EngineConfig.BatchSize).
func WithBatchSize(k int) Option {
	return func(c *config) { c.BatchSize = k }
}

// WithBatchDeadline bounds how long a partial batch is held open
// (smr.EngineConfig.BatchDeadline).
func WithBatchDeadline(d time.Duration) Option {
	return func(c *config) { c.BatchDeadline = d }
}

// WithAdmission sets the replica's admission bounds
// (smr.EngineConfig.Admission). With n = 3f+1 and uniform bounds, at least
// f+1 correct replicas shed together and the client observes a quorum-backed
// retryable smr.ErrOverloaded.
func WithAdmission(cfg smr.AdmissionConfig) Option {
	return func(c *config) { c.Admission = &cfg }
}

// WithProposalPacing sets the peer send-queue depth past which the primary
// defers proposing (smr.EngineConfig.PaceDepth); it paces on 2f peers, the
// votes a batch needs.
func WithProposalPacing(depth int) Option {
	return func(c *config) { c.PaceDepth = depth }
}

// WithLeaseTerm sets the leader-lease term for the linearizable read fast
// path (smr.EngineConfig.LeaseTerm; lease.go).
func WithLeaseTerm(d time.Duration) Option {
	return func(c *config) { c.LeaseTerm = d }
}

// WithCheckpointInterval sets how many executed batches separate
// checkpoints (smr.EngineConfig.CheckpointInterval; checkpoint.go).
func WithCheckpointInterval(k int) Option {
	return func(c *config) { c.CheckpointInterval = k }
}

// WithMetrics publishes replica metrics into reg, labelled by replica ID
// (metrics.go, and the shared series of smr.Engine).
func WithMetrics(reg *obs.Registry) Option {
	return func(c *config) { c.Metrics = reg }
}

// WithTracer attaches a distributed tracer: the replica's side of sampled
// requests (smr/engine_trace.go). PBFT adds no span of its own — there is no
// trusted-hardware call to attribute, which is exactly the contrast with
// MinBFT's ui-attest the breakdown tables surface.
func WithTracer(t *tracing.Tracer) Option {
	return func(c *config) { c.Tracer = t }
}

// WithLogger attaches a structured logger; consensus progress (committed
// batches, stable checkpoints, state transfers) is reported through it with
// view/seq attrs, and lines on a sampled request's path carry the trace ID
// under obs.TraceKey.
func WithLogger(l *slog.Logger) Option {
	return func(c *config) { c.lg = obs.OrNop(l) }
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
	cfg := config{lg: obs.NopLogger()}
	for _, opt := range opts {
		opt(&cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica{
		m:        m,
		tr:       tr,
		ring:     ring,
		events:   syncx.NewQueue[event](),
		cancel:   cancel,
		execNext: 1,
		slots:    make(map[types.SeqNum]*slot),
		lg:       cfg.lg,
	}
	// Pacing waits on 2f peers, the votes a batch needs. A lease takes 2f+1
	// grants: that quorum already intersects every view-change quorum in a
	// correct replica. 2f+1 signed checkpoint votes make a certificate.
	r.eng = smr.NewEngine("pbft", orderer{r}, tr, sm, smr.SystemClock,
		m.Others(tr.Self()), 2*m.F, m.Quorum(), m.Quorum(), "", cfg.EngineConfig)
	r.leaseTerm = r.eng.LeaseTerm()
	r.deadlines = smr.NewDeadlines[timerEvent](smr.SystemClock, func() { r.events.Push(event{tick: true}) })
	r.initMetrics(cfg.Metrics)
	r.wg.Add(2)
	go r.recvLoop(ctx)
	go r.run(ctx)
	return r, nil
}

// Self returns the replica's process ID.
func (r *Replica) Self() types.ProcessID { return r.tr.Self() }

// Close stops the replica's goroutines and then its timer plane, so nothing
// fires once Close has returned.
func (r *Replica) Close() error {
	r.closeOnce.Do(func() {
		r.cancel()
		r.events.Close()
		_ = r.tr.Close()
		r.wg.Wait()
		r.deadlines.Stop() // the run goroutine, its only other user, has exited
	})
	return nil
}

func (r *Replica) recvLoop(ctx context.Context) {
	defer r.wg.Done()
	for {
		env, err := r.tr.Recv(ctx)
		if err != nil {
			return
		}
		e := env
		r.events.Push(event{env: &e})
	}
}

func (r *Replica) run(ctx context.Context) {
	defer r.wg.Done()
	// The primary solicits its first lease up front so the read fast path
	// is live before the first read arrives.
	r.renewLease()
	for {
		// Draining the whole backlog per wakeup lets read replies produced
		// while processing one burst coalesce into one frame per client
		// (FlushReads) instead of one frame per read.
		evs, err := r.events.PopAll(ctx)
		if err != nil {
			return
		}
		for _, ev := range evs {
			switch {
			case ev.env != nil:
				r.handle(*ev.env)
			case ev.tick:
				r.deadlines.Due(r.handleTimer)
			case ev.status != nil:
				ev.status <- r.buildStatus()
			}
		}
		r.eng.FlushReads()
	}
}

func (r *Replica) handleTimer(te timerEvent) {
	switch te.kind {
	case 'e':
		r.eng.TimerFired()
	case 'l':
		r.renewArmed = false
		r.renewLease()
	}
}

// --- wire ---

// signedBytes binds kind, view, seq, and digest for PREPARE/COMMIT, or the
// full request bytes for PRE-PREPARE.
func signedBytes(kind byte, v types.View, n types.SeqNum, payload []byte) []byte {
	e := wire.NewEncoder(48 + len(payload))
	e.String(sigDomain)
	e.Byte(kind)
	e.Uint64(uint64(v))
	e.Uint64(uint64(n))
	e.BytesField(payload)
	return e.Bytes()
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
// layer's work is countable here (PBFT verifies every message directly;
// there is no fastverify cache in front to publish the numbers).
func (r *Replica) sign(msg []byte) []byte {
	r.mx.sigSigns.Inc()
	return r.ring.Sign(msg)
}

func (r *Replica) verify(from types.ProcessID, msg, signature []byte) error {
	r.mx.sigVerifies.Inc()
	return r.ring.Verify(from, msg, signature)
}

func (r *Replica) broadcast(kind byte, n types.SeqNum, payload []byte) {
	r.broadcastTraced(kind, n, payload, tracing.Context{})
}

// broadcastTraced is broadcast with a trace context on the frames; a zero
// context degrades to frames byte-identical to the untraced path.
func (r *Replica) broadcastTraced(kind byte, n types.SeqNum, payload []byte, tc tracing.Context) {
	signature := r.sign(signedBytes(kind, r.view, n, payload))
	msg := encodeMsg(kind, r.view, n, payload, signature)
	_ = transport.BroadcastTraced(r.tr, r.m.Others(r.Self()), msg, tc)
}

// sendSigned signs and sends one message point-to-point (lease grants go
// only to the primary; everything quorum-forming is broadcast).
func (r *Replica) sendSigned(to types.ProcessID, kind byte, n types.SeqNum, payload []byte) {
	signature := r.sign(signedBytes(kind, r.view, n, payload))
	_ = r.tr.Send(to, encodeMsg(kind, r.view, n, payload, signature))
}

// --- handlers ---

func (r *Replica) handle(env transport.Envelope) {
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
	case kindPrePrepare, kindPrepare, kindCommit, kindCheckpoint, kindLeaseRequest, kindLeaseGrant:
		if v != r.view {
			return
		}
		if !r.m.Contains(env.From) {
			return
		}
		if err := r.verify(env.From, signedBytes(kind, v, n, payload), signature); err != nil {
			return
		}
	default:
		return
	}
	switch kind {
	case kindPrePrepare:
		r.handlePrePrepare(env.From, n, payload, env.Trace)
	case kindPrepare:
		r.handlePrepare(env.From, n, payload)
	case kindCommit:
		r.handleCommit(env.From, n, payload)
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
		sl = &slot{
			prepares: make(map[types.ProcessID]bool),
			commits:  make(map[types.ProcessID]bool),
		}
		r.slots[n] = sl
	}
	return sl
}

func (r *Replica) adopt(sl *slot, reqs []smr.Request, digest [sha256.Size]byte) {
	if sl.reqs == nil {
		sl.reqs = reqs
		sl.digest = digest
	}
}

func (r *Replica) handlePrePrepare(from types.ProcessID, n types.SeqNum, payload []byte, tc tracing.Context) {
	if r.m.Leader(r.view) != from || n == 0 || r.released(n) {
		return
	}
	reqs, err := smr.DecodeRequests(payload, smr.MaxBatchSize)
	if err != nil {
		return
	}
	digest := sha256.Sum256(payload)
	sl := r.slot(n)
	if sl.reqs != nil && sl.digest != digest {
		return // conflicting pre-prepare for a bound slot: ignore
	}
	r.adopt(sl, reqs, digest)
	r.eng.BindBatch(&sl.BatchTrace, tc)
	sl.prepares[from] = true
	if !sl.prepares[r.Self()] {
		sl.prepares[r.Self()] = true
		r.broadcast(kindPrepare, n, digest[:])
	}
	r.progress(n, sl)
}

// released reports whether slot n is at or below the stable checkpoint.
func (r *Replica) released(n types.SeqNum) bool { return uint64(n) <= r.eng.Stable().Count }

func (r *Replica) handlePrepare(from types.ProcessID, n types.SeqNum, digest []byte) {
	if len(digest) != sha256.Size || r.released(n) {
		return // released slots take no further votes
	}
	sl := r.slot(n)
	if sl.reqs != nil {
		var d [sha256.Size]byte
		copy(d[:], digest)
		if d != sl.digest {
			return
		}
	}
	sl.prepares[from] = true
	r.progress(n, sl)
}

func (r *Replica) handleCommit(from types.ProcessID, n types.SeqNum, digest []byte) {
	if len(digest) != sha256.Size || r.released(n) {
		return // released slots take no further votes
	}
	sl := r.slot(n)
	if sl.reqs != nil {
		var d [sha256.Size]byte
		copy(d[:], digest)
		if d != sl.digest {
			return
		}
	}
	sl.commits[from] = true
	r.progress(n, sl)
}

// progress advances a slot through prepared -> committed -> executed, then
// gives the primary a chance to propose the next accumulated batch.
func (r *Replica) progress(n types.SeqNum, sl *slot) {
	// Prepared: pre-prepare plus 2f matching prepares (the quorum of 2f+1
	// counting the primary's pre-prepare; our bookkeeping folds both into
	// the prepares set).
	if !sl.prepared && sl.reqs != nil && len(sl.prepares) >= r.m.Quorum() {
		sl.prepared = true
		if !sl.commits[r.Self()] {
			sl.commits[r.Self()] = true
			r.broadcast(kindCommit, n, sl.digest[:])
		}
	}
	if !sl.committed && sl.prepared && len(sl.commits) >= r.m.Quorum() {
		sl.committed = true
		if btc := sl.Context(); btc.Sampled {
			r.lg.Debug("batch committed", "view", r.view, "seq", n, "reqs", len(sl.reqs), obs.TraceKey, btc.Trace)
		} else {
			r.lg.Debug("batch committed", "view", r.view, "seq", n, "reqs", len(sl.reqs))
		}
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
