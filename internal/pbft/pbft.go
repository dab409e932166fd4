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
// Checkpointing (checkpoint.go): every K executed batches the replica
// snapshots its state and broadcasts a signed CHECKPOINT; 2f+1 matching
// votes make it stable, releasing all slots below and enabling state
// transfer for replicas the quorum has left behind.
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
	kindStateFetch   // signed query for a stable checkpoint >= n
	kindStateResp    // stable cert (2f+1 signed votes) + state payload
	kindLeaseRequest // primary's signed lease solicitation (n: lease round)
	kindLeaseGrant   // backup's signed lease promise (n: granted round)
	kindReadRequest  // client read-only request, served off the ordering path
)

const sigDomain = "unidir/pbft/v1"

// Replica is one PBFT replica. Create with New, stop with Close.
type Replica struct {
	m    types.Membership
	tr   transport.Transport
	ring *sig.Keyring
	sm   smr.StateMachine

	execLog *smr.ExecutionLog

	events    *syncx.Queue[event]
	wg        sync.WaitGroup
	cancel    context.CancelFunc
	closeOnce sync.Once

	maxBatch int

	// Flow control (see smr/flowcontrol.go), mirroring minbft's. All
	// run-goroutine-owned.
	batchDeadline    time.Duration // max hold on a partial batch; 0: cut immediately
	batchDeadlineSet bool
	batchFixed       bool // non-adaptive baseline: always wait out the deadline
	trigger          *smr.BatchTrigger
	admission        *smr.Admission
	batchStart       time.Time // arrival of the oldest unproposed pending request
	batchTimerArmed  bool      // a batch deadline timer is outstanding
	maxInFlight      int       // pipelineDepth, or adaptivePipelineDepth with a deadline
	paceDepth        int       // defer proposals past this peer send-queue depth; 0: off
	paceDepthSet     bool
	qd               transport.QueueDepther // nil unless the transport exposes depths

	// State below is owned by the run goroutine.
	deadlines *smr.Deadlines[timerEvent] // the 'b' and 'l' timeouts, on one runtime timer
	view      types.View
	nextSeq   types.SeqNum // primary's next assignment
	execNext  types.SeqNum // next sequence number to execute
	slots     map[types.SeqNum]*slot
	table     *smr.ClientTable
	pending   map[pendingKey]smr.Request // primary's unproposed backlog
	proposed  map[pendingKey]bool        // requests inside an assigned slot
	proposing bool                       // re-entrancy guard for maybePropose

	// Introspection counters (status.go). Run-goroutine-owned, plain so
	// Status works without WithMetrics. Process-lifetime (reset on restart).
	proposedCount    uint64 // batches this primary assigned
	executedReqCount uint64 // requests executed

	// Leader leases for the read fast path (lease.go). Run-goroutine-owned.
	// With the view fixed at 0 the primary is the unique proposer forever,
	// so the 2f+1-grant lease here proves liveness agreement rather than
	// guarding against a competing primary; the freshness watermark is what
	// makes leased reads linearizable (see DESIGN.md §8).
	leaseTerm    time.Duration // 0: leases (and leased reads) disabled
	leaseTermSet bool
	leaseFull    bool         // require grants from all n replicas, not 2f+1
	querier      smr.Querier  // nil: the state machine cannot answer reads
	leaseRound   types.SeqNum // round counter of our outstanding LEASE-REQUEST
	leaseSentAt  time.Time
	leaseGrants  map[types.ProcessID]bool
	leaseUntil   time.Time           // zero: no lease held
	renewArmed   bool                // an 'l' renewal timer is outstanding
	leaseReads   []pendingRead       // leased reads waiting for the execute watermark
	readReplies  map[uint64][][]byte // per-client read replies coalesced within one event-loop drain

	// Checkpointing (checkpoint.go).
	snap         smr.Snapshotter // nil: state machine cannot snapshot
	ckptInterval int             // batches between checkpoints; 0 disables
	ckptVotes    map[types.SeqNum]map[types.ProcessID]ckptVote
	ownStates    map[types.SeqNum][]byte // our snapshots awaiting stability
	stable       ckptCert                // latest stable checkpoint
	stableState  []byte

	statsMu sync.Mutex
	fp      Footprint

	metricsReg *obs.Registry
	mx         metrics // all-nil (free no-ops) without WithMetrics

	// Distributed tracing (tracing.go); nil without WithTracer.
	tracer       *tracing.Tracer
	reqTrace     map[pendingKey]reqTraceInfo // sampled requests awaiting execution
	deferred     []deferredReply             // traced replies held while an execute span is open
	deferReplies bool

	lg *slog.Logger
}

type pendingKey struct {
	client, num uint64
}

// event is one unit of work for the run goroutine.
type event struct {
	env    *transport.Envelope
	tick   bool            // a queued deadline has passed: drain r.deadlines
	status chan obs.Status // introspection request; answered on the run goroutine (status.go)
}

type timerEvent struct {
	kind byte // 'b' batch deadline / pacing recheck, 'l' lease renewal
}

type slot struct {
	reqs      []smr.Request // nil until the pre-prepare binds the batch
	digest    [sha256.Size]byte
	prepares  map[types.ProcessID]bool
	commits   map[types.ProcessID]bool
	prepared  bool
	committed bool
	executed  bool

	btc        tracing.Context // batch trace (zero unless the batch is sampled)
	quorumSpan *tracing.Active // open commit-quorum span; nil when untraced
}

// maxBatchDecode bounds decoded request batches (defensive; the proposer
// side caps batches far lower).
const maxBatchDecode = 1 << 14

// pipelineDepth bounds the primary's assigned-but-unexecuted slots when
// batching is on: one batch working through the three phases while the next
// accumulates (same rationale as minbft's: deeper pipelines drain arrivals
// into tiny batches and per-batch authentication overhead dominates).
const pipelineDepth = 2

// Option configures a Replica.
type Option func(*Replica)

// WithExecutionLog attaches a command log for consistency checks.
func WithExecutionLog(l *smr.ExecutionLog) Option {
	return func(r *Replica) { r.execLog = l }
}

// WithBatchSize caps how many pending requests the primary packs into one
// PRE-PREPARE. k <= 1 disables batching (every request is its own slot, the
// pre-batching behavior). The default comes from smr.DefaultBatchSize (the
// UNIDIR_BATCH environment knob).
func WithBatchSize(k int) Option {
	return func(r *Replica) {
		if k < 1 {
			k = 1
		}
		if k > maxBatchDecode {
			k = maxBatchDecode
		}
		r.maxBatch = k
	}
}

// WithBatchDeadline sets the adaptive batching deadline, exactly as
// minbft.WithBatchDeadline: a size-or-deadline trigger whose EWMA of the
// arrival rate cuts partial batches immediately at light load and holds
// them — never past d — to fill toward the cap near saturation. d == 0
// disables deadline triggering (fixed two-deep pipeline, the pre-adaptive
// behavior). The default comes from smr.DefaultBatchDeadline (the
// UNIDIR_BATCH_DEADLINE environment knob).
func WithBatchDeadline(d time.Duration) Option {
	return func(r *Replica) {
		if d < 0 {
			d = 0
		}
		r.batchDeadline = d
		r.batchDeadlineSet = true
	}
}

// WithFixedBatchWindow makes the primary hold every partial batch for the
// full batch deadline regardless of load or pipeline state — the classic
// fixed batch timer, kept as the A/B baseline for the adaptive trigger
// (benchharness B9's "fixed" mode).
func WithFixedBatchWindow() Option {
	return func(r *Replica) { r.batchFixed = true }
}

// WithAdmission sets the replica's admission bounds (pending-queue cap and
// per-client token bucket; see smr.AdmissionConfig). Shed requests get an
// overload-coded reply; with n = 3f+1 and uniform bounds, at least f+1
// correct replicas shed together and the client observes a quorum-backed
// retryable smr.ErrOverloaded. The default comes from
// smr.DefaultAdmissionConfig (the UNIDIR_ADMIT_* environment knobs).
func WithAdmission(cfg smr.AdmissionConfig) Option {
	return func(r *Replica) {
		r.admission = smr.NewAdmission(cfg)
	}
}

// WithProposalPacing makes the primary defer cutting new batches while fewer
// than 2f peers — the votes a batch needs — have a transport send queue
// shorter than depth frames (requires a transport.QueueDepther transport;
// otherwise a no-op). depth <= 0 disables
// pacing. The default comes from smr.DefaultPaceDepth (the UNIDIR_PACE_DEPTH
// environment knob).
func WithProposalPacing(depth int) Option {
	return func(r *Replica) {
		if depth < 0 {
			depth = 0
		}
		r.paceDepth = depth
		r.paceDepthSet = true
	}
}

// WithLeaseTerm sets the leader-lease term for the linearizable read fast
// path (lease.go), exactly as minbft.WithLeaseTerm: d > 0 sets it, d < 0
// disables leases, d == 0 keeps the smr.DefaultLeaseTerm default (the
// UNIDIR_LEASE environment knob). All replicas must agree on the term.
func WithLeaseTerm(d time.Duration) Option {
	return func(r *Replica) {
		if d < 0 {
			d = 0
		} else if d == 0 {
			return // keep the environment default
		}
		r.leaseTerm = d
		r.leaseTermSet = true
	}
}

// WithLogger attaches a structured logger; consensus progress (committed
// batches, stable checkpoints, state transfers) is reported through it with
// view/seq attrs, and lines on a sampled request's path carry the trace ID
// under obs.TraceKey.
func WithLogger(l *slog.Logger) Option {
	return func(r *Replica) { r.lg = obs.OrNop(l) }
}

// WithCheckpointInterval sets how many executed batches separate
// checkpoints (k <= 0 disables; 0-default from smr.DefaultCheckpointInterval,
// the UNIDIR_CKPT knob). Requires an smr.Snapshotter state machine;
// ignored otherwise.
func WithCheckpointInterval(k int) Option {
	return func(r *Replica) {
		if k <= 0 {
			k = -1 // explicitly disabled (0 means "use the default")
		}
		r.ckptInterval = k
	}
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
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica{
		m:         m,
		tr:        tr,
		ring:      ring,
		sm:        sm,
		maxBatch:  smr.DefaultBatchSize(),
		events:    syncx.NewQueue[event](),
		cancel:    cancel,
		execNext:  1,
		slots:     make(map[types.SeqNum]*slot),
		table:     smr.NewClientTable(),
		pending:   make(map[pendingKey]smr.Request),
		proposed:  make(map[pendingKey]bool),
		ckptVotes: make(map[types.SeqNum]map[types.ProcessID]ckptVote),
		ownStates: make(map[types.SeqNum][]byte),
		reqTrace:  make(map[pendingKey]reqTraceInfo),
		lg:        obs.NopLogger(),
	}
	for _, opt := range opts {
		opt(r)
	}
	if !r.batchDeadlineSet {
		r.batchDeadline = smr.DefaultBatchDeadline()
	}
	if !r.paceDepthSet {
		r.paceDepth = smr.DefaultPaceDepth()
	}
	if r.admission == nil {
		r.admission = smr.NewAdmission(smr.DefaultAdmissionConfig())
	}
	if r.batchFixed {
		r.trigger = smr.NewFixedBatchTrigger(r.maxBatch, r.batchDeadline)
	} else {
		r.trigger = smr.NewBatchTrigger(r.maxBatch, r.batchDeadline)
	}
	r.maxInFlight = pipelineDepth
	if qd, ok := tr.(transport.QueueDepther); ok {
		r.qd = qd
	}
	if snap, ok := sm.(smr.Snapshotter); ok {
		r.snap = snap
	}
	if q, ok := sm.(smr.Querier); ok {
		r.querier = q
	}
	if !r.leaseTermSet {
		r.leaseTerm = smr.DefaultLeaseTerm()
	}
	if r.querier == nil {
		// Without a Querier nothing can answer a read; skip lease traffic.
		r.leaseTerm = 0
	}
	// PBFT's 2f+1 minimum grant quorum already intersects every view-change
	// quorum in a correct replica, so the minimum is the default.
	r.leaseFull = smr.LeaseQuorumFull(true)
	switch {
	case r.ckptInterval == 0:
		r.ckptInterval = smr.DefaultCheckpointInterval()
	case r.ckptInterval < 0:
		r.ckptInterval = 0
	}
	r.deadlines = smr.NewDeadlines[timerEvent](smr.SystemClock, func() { r.events.Push(event{tick: true}) })
	r.initMetrics()
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
		// (flushReadReplies) instead of one frame per read.
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
		r.flushReadReplies()
	}
}

func (r *Replica) handleTimer(te timerEvent) {
	switch te.kind {
	case 'b':
		// Batch deadline (or pacing recheck) expired: cut whatever is
		// pending, however partial.
		r.batchTimerArmed = false
		r.maybePropose()
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
		r.handleRequest(req, env.Trace)
		return
	case kindReadRequest:
		r.handleReadRequest(payload)
		return
	case kindPrePrepare, kindPrepare, kindCommit, kindCheckpoint, kindStateFetch, kindStateResp,
		kindLeaseRequest, kindLeaseGrant:
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
	case kindStateFetch:
		r.handleStateFetch(env.From, n)
	case kindStateResp:
		r.handleStateResp(payload)
	case kindLeaseRequest:
		r.handleLeaseRequest(env.From, n)
	case kindLeaseGrant:
		r.handleLeaseGrant(env.From, n)
	}
}

func (r *Replica) handleRequest(req smr.Request, tc tracing.Context) {
	if result, ok := r.table.CachedReply(req); ok {
		r.reply(req, result)
		return
	}
	key := pendingKey{req.Client, req.Num}
	if !r.table.ShouldExecute(req) {
		// Same reasoning as minbft: a num below the client's last executed
		// one can never execute (per-client order in the table), which
		// happens when an earlier shed left a gap that later pipelined
		// requests overtook. Purge any stranded pending copy and reply
		// overloaded so the client's vote count converges.
		if _, stranded := r.pending[key]; stranded {
			delete(r.pending, key)
			delete(r.reqTrace, key)
			r.mx.pendingDepth.Set(int64(len(r.pending)))
		}
		r.mx.sheds.Inc()
		r.replyOverloaded(req)
		return
	}
	if _, dup := r.pending[key]; dup {
		return
	}
	if r.proposed[key] {
		return // already inside an assigned slot
	}
	// Admission runs at every replica — backups track pending (awaiting a
	// covering pre-prepare) purely for this accounting — so under uniform
	// overload at least f+1 correct replicas shed together and the client
	// observes a quorum-backed ErrOverloaded, not one replica's claim.
	now := time.Now()
	if !r.admission.Admit(req.Client, len(r.pending), now) {
		r.mx.sheds.Inc()
		r.replyOverloaded(req)
		return
	}
	r.noteRequest(key, tc)
	r.pending[key] = req
	r.mx.pendingDepth.Set(int64(len(r.pending)))
	if r.m.Leader(r.view) != r.Self() {
		return // backups wait for the primary's pre-prepare
	}
	r.trigger.Arrive(now)
	if r.batchStart.IsZero() {
		r.batchStart = now
	}
	r.maybePropose()
}

// maybePropose packs the primary's backlog into PRE-PREPAREs, up to maxBatch
// requests each. With batching on, at most maxInFlight slots are assigned
// but unexecuted at a time — working through the three phases while the
// next accumulates; with a batch deadline the cut is size-or-deadline (see
// minbft's maybePropose, the same valve); with maxBatch <= 1 every request
// goes out immediately in its own slot (the unbatched baseline).
func (r *Replica) maybePropose() {
	if r.m.Leader(r.view) != r.Self() || r.proposing {
		return
	}
	r.proposing = true
	defer func() { r.proposing = false }()
	for {
		if r.maxBatch > 1 && int(r.nextSeq)-int(r.execNext)+1 >= r.maxInFlight {
			return
		}
		// Backpressure: a batch needs votes from 2f peers; defer cutting
		// while fewer than 2f send queues are short, rechecking on a timer.
		// Counting short queues (not looking for a long one) is what keeps a
		// crashed peer, whose queue never drains, from wedging the primary.
		if r.paceDepth > 0 && r.qd != nil &&
			transport.QueuesBelow(r.qd, r.m.Others(r.Self()), r.paceDepth) < 2*r.m.F {
			r.mx.pacedProposals.Inc()
			r.armBatchTimer(r.paceRecheck())
			return
		}
		batch := make([]smr.Request, 0, r.maxBatch)
		for _, req := range sortedPending(r.pending) {
			key := pendingKey{req.Client, req.Num}
			if !r.table.ShouldExecute(req) {
				delete(r.pending, key) // executed meanwhile
				delete(r.reqTrace, key)
				continue
			}
			batch = append(batch, req)
			if len(batch) >= r.maxBatch {
				break
			}
		}
		if len(batch) == 0 {
			r.batchStart = time.Time{}
			return
		}
		if r.maxBatch > 1 && len(batch) < r.maxBatch {
			inflight := int(r.nextSeq) - int(r.execNext) + 1
			if wait := r.trigger.Wait(len(batch), inflight, r.batchStart, time.Now()); wait > 0 {
				r.armBatchTimer(wait)
				return
			}
		}
		if !r.batchStart.IsZero() {
			r.mx.batchWait.Observe(time.Since(r.batchStart).Seconds())
		}
		r.nextSeq++
		n := r.nextSeq
		payload := smr.EncodeRequests(batch)
		digest := sha256.Sum256(payload)
		r.proposedCount++
		r.mx.proposedBatches.Inc()
		r.mx.batchSize.Observe(float64(len(batch)))
		span := r.startProposeSpan(batch)
		btc := span.Context()
		r.broadcastTraced(kindPrePrepare, n, payload, btc)
		span.End()
		// The primary's pre-prepare stands for its prepare.
		sl := r.slot(n)
		r.adopt(sl, batch, digest)
		r.bindSlotTrace(sl, btc)
		sl.prepares[r.Self()] = true
		for _, req := range batch {
			key := pendingKey{req.Client, req.Num}
			delete(r.pending, key)
			r.proposed[key] = true
		}
		// Anything still unproposed starts accumulating a fresh batch now.
		if len(r.pending) > 0 {
			r.batchStart = time.Now()
		} else {
			r.batchStart = time.Time{}
		}
		r.progress(n, sl)
	}
}

// paceRecheck is how long a paced primary waits before re-inspecting peer
// queue depths.
func (r *Replica) paceRecheck() time.Duration {
	if r.batchDeadline > 0 {
		return r.batchDeadline
	}
	return 100 * time.Microsecond
}

// armBatchTimer schedules one deadline/pacing recheck; at most one is
// outstanding so deferred cuts cannot pile up timer events.
func (r *Replica) armBatchTimer(d time.Duration) {
	if r.batchTimerArmed {
		return
	}
	r.batchTimerArmed = true
	r.deadlines.After(d, timerEvent{kind: 'b'})
}

// sortedPending yields the backlog in a deterministic order.
func sortedPending(pending map[pendingKey]smr.Request) []smr.Request {
	out := make([]smr.Request, 0, len(pending))
	for _, req := range pending {
		out = append(out, req)
	}
	smr.SortRequests(out)
	return out
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
	if r.m.Leader(r.view) != from || n == 0 || n <= r.stable.Seq {
		return
	}
	reqs, err := smr.DecodeRequests(payload, maxBatchDecode)
	if err != nil {
		return
	}
	digest := sha256.Sum256(payload)
	sl := r.slot(n)
	if sl.reqs != nil && sl.digest != digest {
		return // conflicting pre-prepare for a bound slot: ignore
	}
	r.adopt(sl, reqs, digest)
	r.bindSlotTrace(sl, tc)
	sl.prepares[from] = true
	if !sl.prepares[r.Self()] {
		sl.prepares[r.Self()] = true
		r.broadcast(kindPrepare, n, digest[:])
	}
	r.progress(n, sl)
}

func (r *Replica) handlePrepare(from types.ProcessID, n types.SeqNum, digest []byte) {
	if len(digest) != sha256.Size || n <= r.stable.Seq {
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
	if len(digest) != sha256.Size || n <= r.stable.Seq {
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
		if sl.btc.Sampled {
			r.lg.Debug("batch committed", "view", r.view, "seq", n, "reqs", len(sl.reqs), obs.TraceKey, sl.btc.Trace)
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
		execSpan := r.finishSlotSpans(next)
		for _, req := range next.reqs {
			r.execute(req)
		}
		execSpan.End()
		r.flushReplies()
		r.executedReqCount += uint64(len(next.reqs))
		r.mx.executedBatches.Inc()
		r.mx.executedReqs.Add(uint64(len(next.reqs)))
		if r.ckptEnabled() && uint64(seq)%uint64(r.ckptInterval) == 0 {
			r.takeCheckpoint(seq)
		}
		executed = true
	}
	if executed {
		r.mx.openSlots.Set(int64(len(r.slots)))
		r.mx.pendingDepth.Set(int64(len(r.pending)))
		r.flushLeaseReads()
		r.maybePropose()
	}
}

func (r *Replica) execute(req smr.Request) {
	key := pendingKey{req.Client, req.Num}
	delete(r.pending, key)
	delete(r.proposed, key)
	if !r.table.ShouldExecute(req) {
		delete(r.reqTrace, key)
		if result, ok := r.table.CachedReply(req); ok {
			r.reply(req, result)
		}
		return
	}
	if r.execLog != nil {
		r.execLog.Record(req.Encode())
	}
	result := r.sm.Apply(req.Op)
	r.table.Executed(req, result)
	r.tracedReply(key, req, result)
}

func (r *Replica) reply(req smr.Request, result []byte) {
	rep := smr.Reply{Replica: r.Self(), Client: req.Client, Num: req.Num, Result: result}
	_ = r.tr.Send(types.ProcessID(req.Client), rep.Encode())
}

// replyOverloaded sheds a request with an overload-coded reply; the client
// acts on it only once f+1 replicas agree (see smr.Reply).
func (r *Replica) replyOverloaded(req smr.Request) {
	rep := smr.Reply{Replica: r.Self(), Client: req.Client, Num: req.Num, Code: smr.ReplyOverloaded}
	_ = r.tr.Send(types.ProcessID(req.Client), rep.Encode())
}
