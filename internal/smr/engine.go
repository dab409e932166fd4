package smr

// The replica engine: everything a BFT replica does that has nothing to do
// with how batches get ordered. It owns the path from "a decoded client
// request or read arrives" to "a batch is handed to the ordering core", and
// from "the core says this batch is next in the total order" to "replies
// leave": the client table, the pending set, admission, the batching valve
// with its pipeline and pacing gates, execution and replies, request tracing
// (engine_trace.go), the read server with the lease tally (engine_read.go),
// the checkpoint plane (engine_ckpt.go), the shared metric series and status
// fields (engine_obs.go) and the shared settings (engine_config.go).
// internal/minbft and internal/pbft are the two ordering cores: they keep
// wire formats, message authentication, slots and quorum counting, view
// change, the lease protocol, and how a checkpoint vote is authenticated.
//
// An Engine is owned by its replica's run goroutine (the Loop of loop.go);
// none of its methods is safe for concurrent use. It never asks which
// protocol it serves: what
// differs arrives as a construction parameter or as an answer from the core
// (DESIGN.md §5, "Replica engine and ordering cores").

import (
	"crypto/sha256"
	"sync/atomic"
	"time"

	"unidir/internal/obs/tracing"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// Orderer is what the engine needs from an ordering core. Positions are
// counted in batches of the total order.
type Orderer interface {
	// Leading reports whether this replica leads the current view with no
	// view change in flight. It gates both proposing and leased reads.
	Leading() bool
	// InFlight is how many batches this leader has proposed that have not
	// executed yet.
	InFlight() int
	// Propose orders one batch. False means nothing was sent and nothing is
	// in flight. For the batch trace, the core calls StartProposeSpan once
	// the proposal is encoded and about to be authenticated and sent, puts
	// the span's context on the proposal's frames, and Ends the span when the
	// proposal is on the wire — before it binds the batch (BindBatch), so
	// that propose and commit-quorum do not overlap.
	Propose(batch []Request) bool
	// ReadPoint returns how many batches this leader has proposed and how
	// many of the total order it has executed, on one scale that only moves
	// forward while the replica leads a view (the queue of waiting reads is
	// failed on every revocation, so the scale may restart between views),
	// and the execution watermark read replies carry as ExecSeq.
	ReadPoint() (proposed, executed, execSeq uint64)

	// VoteCheckpoint authenticates and broadcasts this replica's checkpoint
	// vote for the state digest at position count, and returns its proof.
	// False means nothing was sent.
	VoteCheckpoint(count uint64, digest [sha256.Size]byte) (proof []byte, ok bool)
	// VerifyCheckpoint checks every proof of a certificate whose size and
	// voters the engine has already checked.
	VerifyCheckpoint(cert CkptCert) error
	// FrameState wraps a STATE-FETCH (resp false) or STATE-RESP body for the
	// wire. Both are unauthenticated: a response is self-certifying.
	FrameState(resp bool, body []byte) []byte
	// CheckpointStable follows every stable advance: prev was the stable
	// certificate, cert is. The core releases what cert subsumes; installed
	// says the state was installed from elsewhere (a transfer, or the
	// checkpoint file at start), so execution resumes just past cert.Count.
	CheckpointStable(prev, cert CkptCert, installed bool)
}

// RequestID names one client request.
type RequestID struct {
	Client, Num uint64
}

// ID returns the request's name.
func (r Request) ID() RequestID { return RequestID{r.Client, r.Num} }

// pipelineDepth bounds the leader's proposed-but-unexecuted batches when
// batching is on. Only the first slot takes a partial batch: while a batch is
// in flight, arrivals accumulate and go out together when it executes, so a
// batch fills to what arrives during one commit round instead of what
// arrives within a fixed wait. The second slot takes only a full batch,
// which a burst larger than the cap cannot otherwise drain; a partial second
// batch would split the accumulating one in two and pay the per-batch
// authentication twice.
const pipelineDepth = 2

// Engine is one replica's protocol-independent half. Create with NewEngine.
type Engine struct {
	name     string // the protocol: metric-name prefix and Status.Protocol
	core     Orderer
	tr       transport.Transport
	clock    Clock
	armTimer func(time.Duration) // the engine's timer on the replica loop (NewLoop sets it); calls timerFired

	sm      StateMachine
	snap    Snapshotter // nil: the state machine cannot snapshot
	querier Querier     // nil: the state machine cannot answer reads
	execLog *ExecutionLog

	// Request plane. A request stays in pending from admission until it
	// executes; proposed marks the ones inside a batch this leader has in
	// flight in the current view. That model survives a view change: the new
	// leader still holds what the old one failed to order.
	table     *ClientTable
	pending   map[RequestID]Request
	proposed  map[RequestID]bool
	admission *Admission

	// The batching valve.
	maxBatch   int
	batchStart time.Time // arrival of the oldest unproposed pending request
	proposing  bool      // re-entrancy guard for MaybePropose
	paceDepth  int       // 0: pacing off
	paceQuorum int       // peers with a short send queue a proposal needs
	paceArmed  bool      // a pacing recheck is outstanding
	peers      []types.ProcessID
	qd         transport.QueueDepther // nil unless the transport exposes depths

	// Read plane (engine_read.go).
	leaseTerm   time.Duration // 0: leases (and leased reads) disabled
	grantQuorum int           // grants, the leader's own included, that hold a lease
	leaseSentAt time.Time
	leaseGrants map[types.ProcessID]bool
	leaseUntil  time.Time           // zero: no lease held
	leaseReads  []pendingRead       // leased reads waiting for the execute watermark
	readReplies map[uint64][][]byte // per-client read replies of the current event burst

	// Checkpoint plane (engine_ckpt.go).
	ckptInterval int    // executed positions between checkpoints; 0: off
	ckptQuorum   int    // matching votes that make a certificate
	dataDir      string // "": no checkpoint file
	execPos      uint64 // the last executed position the core reported
	ckptTally    map[uint64]map[types.ProcessID]ckptBallot
	ckptOwn      map[uint64]ownCkpt // own snapshots awaiting stability
	stable       CkptCert
	stableState  []byte      // the state stable certifies
	fetchTarget  uint64      // stable position being fetched (0: none)
	fetchAt      time.Time   // when the fetch is re-sent
	fetching     atomic.Bool // fetchTarget != 0, for readiness probes

	// Process-lifetime counters for FillStatus; plain so that status works
	// without a registry.
	proposedCount    uint64
	executedReqCount uint64
	mx               engineMetrics // all-nil (free no-ops) without a registry

	// Distributed tracing (engine_trace.go); tracer is nil when off.
	tracer       *tracing.Tracer
	reqTrace     map[RequestID]reqTraceInfo // sampled requests awaiting execution
	deferred     []deferredReply            // traced replies held while an execute span is open
	deferReplies bool
}

// NewEngine builds the engine of replica tr.Self(). name prefixes the metric
// series ("<name>_batches_proposed_total{replica=…}"). peers are the other
// replicas; paceQuorum is how many of them must have a short send queue for
// a proposal to go out (the votes a batch needs from them), grantQuorum how
// many lease grants, the leader's own included, hold a lease, ckptQuorum how
// many matching checkpoint votes make a certificate. With a dataDir the
// stable checkpoint is kept in a file there (LoadCheckpoint). All time is
// read from clock.
func NewEngine(name string, core Orderer, tr transport.Transport, sm StateMachine, clock Clock,
	peers []types.ProcessID, paceQuorum, grantQuorum, ckptQuorum int, dataDir string, cfg EngineConfig) *Engine {
	cfg = cfg.Resolved()
	e := &Engine{
		name:        name,
		core:        core,
		tr:          tr,
		clock:       clock,
		sm:          sm,
		execLog:     cfg.ExecutionLog,
		table:       NewClientTable(),
		pending:     make(map[RequestID]Request),
		proposed:    make(map[RequestID]bool),
		admission:   NewAdmission(*cfg.Admission),
		maxBatch:    cfg.BatchSize,
		paceDepth:   cfg.PaceDepth,
		paceQuorum:  paceQuorum,
		peers:       peers,
		grantQuorum: grantQuorum,
		ckptQuorum:  ckptQuorum,
		dataDir:     dataDir,
		ckptTally:   make(map[uint64]map[types.ProcessID]ckptBallot),
		ckptOwn:     make(map[uint64]ownCkpt),
		tracer:      cfg.Tracer,
		reqTrace:    make(map[RequestID]reqTraceInfo),
	}
	e.qd, _ = tr.(transport.QueueDepther)
	if snap, ok := sm.(Snapshotter); ok {
		e.snap = snap
		e.ckptInterval = cfg.CheckpointInterval
	}
	if q, ok := sm.(Querier); ok {
		// Without a Querier nothing can answer a read, leased or fallback,
		// so the lease stays off and the core sends no lease traffic.
		e.querier = q
		e.leaseTerm = cfg.LeaseTerm
	}
	e.initMetrics(name, cfg.Metrics)
	return e
}

// LeaseTerm returns the lease term in effect; 0 means leases are off.
func (e *Engine) LeaseTerm() time.Duration { return e.leaseTerm }

// CheckpointInterval returns the checkpoint cadence in effect, in executed
// batches; 0 means checkpointing is off.
func (e *Engine) CheckpointInterval() int { return e.ckptInterval }

// --- intake ---

// HandleRequest takes one decoded client request and reports whether it
// entered the pending set. A retransmission of the client's last executed
// request is answered from the reply cache, a request that can no longer
// execute or that admission refuses is shed with an overload reply, and a
// duplicate is dropped. After an admission the core arms whatever watchdog
// it keeps for the request and calls MaybePropose.
func (e *Engine) HandleRequest(req Request, tc tracing.Context) bool {
	if result, ok := e.table.CachedReply(req); ok {
		e.reply(req, result)
		return false
	}
	id := req.ID()
	if !e.table.ShouldExecute(req) {
		// Below the client's last executed num with the reply cache moved
		// on: the table's per-client order means this request can never
		// execute. That happens when an earlier shed left a num gap that the
		// pipeline's later requests overtook. Purge any stranded pending
		// copy — its watchdog must not blame the leader — and answer with an
		// overload reply so the client's vote count converges instead of
		// retransmitting forever.
		if _, stranded := e.pending[id]; stranded {
			delete(e.pending, id)
			delete(e.proposed, id)
			delete(e.reqTrace, id)
			e.mx.pendingDepth.Set(int64(len(e.pending)))
		}
		e.mx.sheds.Inc()
		e.replyOverloaded(req)
		return false
	}
	if _, dup := e.pending[id]; dup {
		return false
	}
	// Admission runs at every replica, so under uniform overload at least
	// f+1 correct replicas shed together and the client observes a
	// quorum-backed ErrOverloaded, not one replica's claim. A shed request
	// never enters pending: no watchdog is armed for it, so overload cannot
	// pass for a faulty leader and trigger view changes. A later
	// retransmission is admitted on its own merits.
	now := e.clock.Now()
	if !e.admission.Admit(req.Client, len(e.pending), now) {
		e.mx.sheds.Inc()
		e.replyOverloaded(req)
		return false
	}
	e.pending[id] = req
	e.mx.pendingDepth.Set(int64(len(e.pending)))
	if e.batchStart.IsZero() {
		e.batchStart = now
	}
	e.noteRequest(id, tc, now)
	return true
}

// Pending reports whether request id is admitted and not yet executed.
func (e *Engine) Pending(id RequestID) bool {
	_, ok := e.pending[id]
	return ok
}

// PendingLen returns how many requests are admitted and not yet executed.
func (e *Engine) PendingLen() int { return len(e.pending) }

// RangePending calls fn for every pending request, in no particular order.
func (e *Engine) RangePending(fn func(RequestID)) {
	for id := range e.pending {
		fn(id)
	}
}

// --- the batching valve ---

// MaybePropose is the leader's batching valve: it packs pending requests not
// yet inside an in-flight batch into proposals of up to BatchSize requests.
// With batching on, an idle pipeline takes whatever is pending at once, and
// while a batch is in flight arrivals are held until it executes
// (AfterExecute calls back here) unless they fill a whole batch, which may
// take the second of the pipelineDepth slots. That is what amortizes the
// authentication and the O(n) broadcast, and a held arrival costs O(1). With
// BatchSize 1 there is no cap on batches in flight and every request goes out
// in its own proposal immediately.
//
// It is a no-op when called from inside itself: Propose may commit and
// execute the batch on the spot (a group of one), and execution ends in
// AfterExecute, which calls back here. The outer loop then carries on.
func (e *Engine) MaybePropose() {
	if e.proposing || !e.core.Leading() {
		return
	}
	e.proposing = true
	defer func() { e.proposing = false }()
	for {
		if e.maxBatch > 1 {
			// e.proposed only ever holds pending requests, so the difference
			// counts the backlog without building it.
			inflight := e.core.InFlight()
			if inflight >= pipelineDepth || inflight > 0 && len(e.pending)-len(e.proposed) < e.maxBatch {
				return
			}
		}
		// Backpressure: a batch needs votes from paceQuorum peers, and while
		// fewer than that many send queues are short, pushing more batches
		// only grows them. Defer and recheck on a timer. Counting short
		// queues (not looking for a long one) is what keeps a crashed peer,
		// whose queue never drains, from wedging the leader. At most one
		// recheck is outstanding, so deferrals cannot pile up timer events.
		if e.paceDepth > 0 && e.qd != nil &&
			transport.QueuesBelow(e.qd, e.peers, e.paceDepth) < e.paceQuorum {
			e.mx.pacedProposals.Inc()
			if !e.paceArmed {
				e.paceArmed = true
				e.armTimer(paceRecheck)
			}
			return
		}
		batch := make([]Request, 0, e.maxBatch)
		for _, req := range e.sortedBacklog() {
			if !e.table.ShouldExecute(req) {
				id := req.ID()
				delete(e.pending, id) // executed meanwhile (e.g. via view change)
				delete(e.reqTrace, id)
				continue
			}
			batch = append(batch, req)
			if len(batch) >= e.maxBatch {
				break
			}
		}
		if len(batch) == 0 {
			e.batchStart = time.Time{}
			return
		}
		if !e.batchStart.IsZero() {
			e.mx.batchWait.Observe(e.clock.Now().Sub(e.batchStart).Seconds())
		}
		if !e.core.Propose(batch) {
			return // nothing was sent; the core's watchdogs drive recovery
		}
		e.proposedCount++
		e.mx.proposedBatches.Inc()
		e.mx.batchSize.Observe(float64(len(batch)))
		e.mx.inFlight.Set(int64(e.core.InFlight()))
		for _, req := range batch {
			// Still pending unless Propose executed the batch on the spot.
			if id := req.ID(); e.Pending(id) {
				e.proposed[id] = true
			}
		}
		// Anything still unproposed starts accumulating a fresh batch now.
		if len(e.pending) > len(e.proposed) {
			e.batchStart = e.clock.Now()
		} else {
			e.batchStart = time.Time{}
		}
	}
}

// ResetProposed forgets which requests were in flight: a new view is
// installed, the old view's proposals are gone, and everything still pending
// is the new leader's to batch afresh (per-request dedup in the client table
// keeps any overlap with entries the view change did execute harmless).
func (e *Engine) ResetProposed() {
	clear(e.proposed)
	e.mx.inFlight.Set(int64(e.core.InFlight()))
	e.mx.pendingDepth.Set(int64(len(e.pending)))
}

// paceRecheck is how long a paced leader waits before re-inspecting peer
// queue depths.
const paceRecheck = 100 * time.Microsecond

// sortedBacklog yields the pending requests not yet inside an in-flight
// batch, in a deterministic order. (Filtering before the sort keeps its cost
// proportional to the backlog, not to the client windows in flight.)
func (e *Engine) sortedBacklog() []Request {
	out := make([]Request, 0, max(len(e.pending)-len(e.proposed), 0))
	for id, req := range e.pending {
		if !e.proposed[id] {
			out = append(out, req)
		}
	}
	SortRequests(out)
	return out
}

// --- execution and replies ---

// AnyFresh reports whether any request of a batch is still unexecuted.
func (e *Engine) AnyFresh(reqs []Request) bool {
	for _, req := range reqs {
		if e.table.ShouldExecute(req) {
			return true
		}
	}
	return false
}

// Execute applies the batch the core says is next in the total order — each
// request deduplicated through the client table — and sends the replies. bt
// is the batch's trace record, bound earlier with BindBatch. The core calls
// AfterExecute once it has executed everything that was ready.
func (e *Engine) Execute(reqs []Request, bt *BatchTrace) {
	execSpan := e.finishBatchSpans(bt)
	for _, req := range reqs {
		e.apply(req)
	}
	execSpan.End()
	e.flushReplies()
	e.executedReqCount += uint64(len(reqs))
	e.mx.executedBatches.Inc()
	e.mx.executedReqs.Add(uint64(len(reqs)))
	if !bt.boundAt.IsZero() {
		e.mx.commitLatency.Observe(e.clock.Now().Sub(bt.boundAt).Seconds())
	}
	e.mx.inFlight.Set(int64(e.core.InFlight()))
	e.mx.pendingDepth.Set(int64(len(e.pending)))
}

// Replay applies requests recovered by a view change, outside any slot of
// the new view: deduplicated like Execute, but with no batch to account for.
func (e *Engine) Replay(reqs []Request) {
	for _, req := range reqs {
		e.apply(req)
	}
}

// AfterExecute follows a run of Execute calls: reads that waited for the
// execute watermark are answered, and the freed proposal slot is used.
func (e *Engine) AfterExecute() {
	e.flushLeaseReads()
	e.MaybePropose()
}

// ResendCached answers, from the reply cache, every request of reqs that is
// its client's last executed one — a retransmission the leader batched.
func (e *Engine) ResendCached(reqs []Request) {
	for _, req := range reqs {
		if result, ok := e.table.CachedReply(req); ok {
			e.reply(req, result)
		}
	}
}

// apply executes one request (with client-table dedup) and replies.
func (e *Engine) apply(req Request) {
	id := req.ID()
	delete(e.pending, id)
	delete(e.proposed, id)
	if !e.table.ShouldExecute(req) {
		delete(e.reqTrace, id)
		if result, ok := e.table.CachedReply(req); ok {
			e.reply(req, result)
		}
		return
	}
	if e.execLog != nil {
		e.execLog.Record(req.Encode())
	}
	result := e.sm.Apply(req.Op)
	e.table.Executed(req, result)
	e.tracedReply(id, req, result)
}

func (e *Engine) reply(req Request, result []byte) {
	rep := Reply{Replica: e.tr.Self(), Client: req.Client, Num: req.Num, Result: result}
	_ = e.tr.Send(types.ProcessID(req.Client), rep.Encode())
}

// replyOverloaded sheds a request with an overload-coded reply. The client
// counts these as votes like any other reply, so it backs off only when f+1
// replicas independently shed — one Byzantine replica cannot fake overload.
func (e *Engine) replyOverloaded(req Request) {
	rep := Reply{Replica: e.tr.Self(), Client: req.Client, Num: req.Num, Code: ReplyOverloaded}
	_ = e.tr.Send(types.ProcessID(req.Client), rep.Encode())
}

// --- checkpoint state ---

// Snapshot returns the checkpoint state: the application snapshot plus the
// client table, the payload whose digest replicas vote on. It requires a
// Snapshotter state machine (CheckpointInterval() > 0 implies one).
func (e *Engine) Snapshot() []byte {
	return EncodeCheckpointState(e.snap.Snapshot(), e.table)
}

// Restore installs a checkpoint state produced by some replica's Snapshot,
// replacing the application state and the client table.
func (e *Engine) Restore(state []byte) error {
	app, table, err := DecodeCheckpointState(state)
	if err != nil {
		return err
	}
	if err := e.snap.Restore(app); err != nil {
		return err
	}
	e.table = table
	return nil
}
