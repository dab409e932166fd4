// Package minbft implements a MinBFT-style Byzantine fault-tolerant
// replicated state machine (Veronese et al., "Efficient Byzantine
// Fault-Tolerance", IEEE ToC 2013) with n = 2f+1 replicas, built on the
// library's simulated TrInc trinkets as the USIG (Unique Sequential
// Identifier Generator).
//
// This is the paper's classification made concrete on the application
// level: trusted-log hardware (TrInc) lets an asynchronous BFT SMR run with
// 2f+1 replicas and two communication phases, versus PBFT's 3f+1 replicas
// and three phases (internal/pbft is that baseline). Every replica message
// carries a UI — a TrInc attestation over the message body on the
// replica's USIG counter — so a replica cannot send conflicting messages
// at the same counter value, and receivers process each peer's messages in
// counter order.
//
// Normal case:
//
//	client  --REQUEST-->  all replicas
//	primary --PREPARE(v, batch)+UI-->  all
//	backup  --COMMIT(v, prepare-UI, batch digest)+UI--> all
//	executed at f+1 matching endorsements (the PREPARE counts as the
//	primary's); replicas reply directly to the client, which accepts a
//	result vouched for by f+1 replicas.
//
// The primary batches: all requests pending when a proposal slot frees are
// packed into one PREPARE (capped by smr.EngineConfig.BatchSize), so the
// USIG attestation, the O(n) broadcast, and the f+1 quorum certificate are
// paid once per batch rather than once per request. A batch occupies exactly one
// slot in the total order; requests inside it execute in their in-batch
// order, each still deduplicated by the per-client table, so batching
// changes the amortization, not the properties (DESIGN.md §5).
//
// Omission recovery: messages are authenticated by their UI rather than
// the delivery channel, so any replica can relay any protocol message. A
// replica that detects a gap in a peer's UI sequence (or a commit
// referencing a prepare it never received) broadcasts a FETCH and peers
// answer from their message stores — a Byzantine sender cannot stall
// correct replicas by sending to only some of them.
//
// Checkpointing (checkpoint.go, and the engine's checkpoint plane): every K
// executed batches the replica snapshots its state machine plus client table
// and broadcasts an attested CHECKPOINT(count, digest); f+1 matching votes
// make it stable, after which the accepted-prepare log, the per-slot
// entries, and the fetch store are garbage-collected below it, keeping
// replica memory bounded. A replica proven behind a stable checkpoint
// installs it via state transfer, and a replica restarted from a data dir
// rehydrates its trusted counter and latest stable checkpoint, announces
// RESTART, and catches up the same way.
//
// View change: on request timeout a replica
// broadcasts VIEW-CHANGE(v+1, accepted-prepare log)+UI; the new primary
// assembles f+1 of them into NEW-VIEW. Every replica deterministically
// recomputes the union of the embedded logs — each entry self-certified by
// the old primary's UI, so entries can be omitted but never forged —
// orders it by (view, prepare counter), executes what it has not executed
// yet (client-table dedup), and enters the new view. Any request executed
// by a correct replica carries f+1 endorsements, hence appears in at least
// one log of any f+1 view-change quorum (quorum intersection at n = 2f+1),
// so no committed request is lost.
package minbft

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unidir/internal/obs/tracing"
	"unidir/internal/smr"
	"unidir/internal/transport"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// config is what the options fill in: the settings shared with PBFT
// (smr.EngineConfig, which documents and defaults them) plus MinBFT's own.
type config struct {
	smr.EngineConfig
	reqTimeout time.Duration
	dataDir    string
}

// Option configures a Replica.
type Option func(*config)

// WithEngineConfig sets every setting MinBFT shares with PBFT: batching,
// pacing, admission, leases, checkpoints, metrics, tracing and the execution
// log (internal/cluster translates a Spec into one).
func WithEngineConfig(cfg smr.EngineConfig) Option {
	return func(c *config) { c.EngineConfig = cfg }
}

// WithRequestTimeout sets how long a pending request may wait before the
// replica initiates a view change (default 500ms).
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) { c.reqTimeout = d }
}

// WithDataDir makes the replica crash-restart capable: the latest stable
// checkpoint is persisted under dir (atomically, see smr/engine_ckpt.go) and
// reloaded by New, after which the replica announces its restart and
// catches the rest up via state transfer. The trusted counter itself is
// persisted by the device (trinc.Device.Persist with a ctrstore WAL under
// the same dir), which the caller wires up — the replica only owns the
// checkpoint file. Requires an smr.Snapshotter state machine.
func WithDataDir(dir string) Option {
	return func(c *config) { c.dataDir = dir }
}

// Replica is one MinBFT replica: the ordering core of an smr.Engine. The
// engine owns the request, read, reply and tracing planes; what is here is
// what the trusted counter changes — UI-authenticated messages processed in
// counter order, f+1 quorums over two phases, view change, the lease
// protocol, checkpoint votes. The smr.Loop drives both. Create with New,
// stop with Close.
type Replica struct {
	m    types.Membership
	tr   transport.Transport
	dev  *trinc.Device
	ver  *trinc.Verifier
	eng  *smr.Engine
	loop *smr.Loop[timerEvent] // every timeout below, on one runtime timer

	reqTimeout time.Duration

	// State below is owned by the run goroutine.
	view       types.View
	inVC       bool       // view change in progress
	targetView types.View // view being changed to while inVC

	lastUI   map[types.ProcessID]types.SeqNum             // per-peer processed UI cursor
	uiBuffer map[types.ProcessID]map[types.SeqNum]peerMsg // out-of-order holding
	msgStore map[types.ProcessID]map[types.SeqNum]peerMsg // processed messages, servable to fetchers

	entries   map[entryKey]*entry
	prepOrder []entryKey // accepted prepares of the current view, in UI order
	execIdx   int        // next prepOrder index to execute
	orderBase uint64     // prepOrder entries trimmed by checkpoint GC (see orderer.ReadPoint)
	inFlight  int        // batches this leader proposed but not yet executed

	acceptedLog []logEntry // all prepares this replica ever endorsed

	vcVotes map[types.View]map[types.ProcessID]signedVC

	// The lease protocol (lease.go); the engine keeps the tally.
	leaseTerm       time.Duration // 0: leases disabled
	leaseRound      types.SeqNum  // UI seq of our outstanding LEASE-REQUEST
	renewArmed      bool          // an 'l' renewal timer is outstanding
	grantUntil      time.Time     // our outstanding grantor promise horizon
	deferredVC      types.View    // view change deferred behind grantUntil (0: none)
	grantTimerArmed bool          // a 'g' grant-expiry timer is outstanding

	// Checkpointing and recovery (checkpoint.go); the engine keeps the rest.
	execCount       uint64                           // fresh batches executed, in total order
	gcVoteSeqs      map[types.ProcessID]types.SeqNum // fetch-store GC watermarks
	gcSeqFloor      types.SeqNum                     // current-view prepare seqs GC'd below
	pendingNV       *newView                         // NEW-VIEW deferred behind a state fetch
	pendingNVRaw    []byte
	lastNVRaw       []byte // encoded NEW-VIEW envelope of the installed view
	announceRestart bool

	statsMu sync.Mutex
	fp      Footprint

	mx     metrics         // all-nil (free no-ops) without EngineConfig.Metrics
	tracer *tracing.Tracer // for the ui-attest span; nil without EngineConfig.Tracer

	// Mirrors of view and inVC, readable off the run goroutine (View, Ready,
	// the stale Status); the engine mirrors state transfer (Fetching).
	viewMirror atomic.Uint64
	rdyVC      atomic.Bool
}

type entryKey struct {
	view types.View
	seq  types.SeqNum // primary's UI counter value
}

type entry struct {
	smr.BatchTrace
	reqs      []smr.Request // nil until the prepare binds the batch
	reqDigest [sha256.Size]byte
	prepUI    trinc.Attestation
	votes     map[types.ProcessID]bool
	executed  bool
	mine      bool // proposed by this replica (leader in-flight accounting)
}

type peerMsg struct {
	kind byte
	body []byte
	ui   trinc.Attestation
	tc   tracing.Context // trace context the message arrived with
}

// timerEvent is one of the core's timeouts on r.loop. Request watchdogs ('t')
// ride the Watch lane — reqTimeout is their one duration — and the rest use
// After.
type timerEvent struct {
	kind    byte // 't' request timeout, 'v' view-change timeout, 'f' fetch, 'l' lease renewal, 'g' grantor-promise expiry
	pending smr.RequestID
	view    types.View
	peer    types.ProcessID // fetch target trinket
	seq     types.SeqNum    // fetch target counter value
	retries int
}

// maxFetchRetries bounds gap-fill attempts: a trinket owner that attested
// a counter value but never released the message to anyone is detectably
// faulty, and chasing it forever would be an amplification vector.
const maxFetchRetries = 8

// New starts a replica. dev is this replica's trinket (its USIG); ver
// verifies all trinkets; sm is the deterministic application.
func New(m types.Membership, tr transport.Transport, dev *trinc.Device, ver *trinc.Verifier, sm smr.StateMachine, opts ...Option) (*Replica, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.N < 2*m.F+1 {
		return nil, fmt.Errorf("minbft: requires n >= 2f+1, got n=%d f=%d", m.N, m.F)
	}
	if dev.Owner() != tr.Self() {
		return nil, fmt.Errorf("minbft: trinket owner %v != endpoint %v", dev.Owner(), tr.Self())
	}
	cfg := config{reqTimeout: 500 * time.Millisecond}
	for _, opt := range opts {
		opt(&cfg)
	}
	r := &Replica{
		m:          m,
		tr:         tr,
		dev:        dev,
		ver:        ver,
		reqTimeout: cfg.reqTimeout,
		tracer:     cfg.Tracer,
		lastUI:     make(map[types.ProcessID]types.SeqNum),
		uiBuffer:   make(map[types.ProcessID]map[types.SeqNum]peerMsg),
		msgStore:   make(map[types.ProcessID]map[types.SeqNum]peerMsg),
		entries:    make(map[entryKey]*entry),
		vcVotes:    make(map[types.View]map[types.ProcessID]signedVC),
		gcVoteSeqs: make(map[types.ProcessID]types.SeqNum),
	}
	r.initMetrics(cfg.Metrics)
	// Pacing waits on f peers, the commits a batch needs. A lease takes
	// grants from all n replicas: the f+1 minimum is not Byzantine-safe here
	// (DESIGN.md §8). f+1 attested checkpoint votes make a certificate.
	r.eng = smr.NewEngine("minbft", orderer{r}, tr, sm, smr.SystemClock,
		m.Others(tr.Self()), m.F, m.N, m.FPlusOne(), cfg.dataDir, cfg.EngineConfig)
	r.loop = smr.NewLoop[timerEvent](r.eng, orderer{r})
	r.leaseTerm = r.eng.LeaseTerm()
	loaded, err := r.eng.LoadCheckpoint()
	if err != nil {
		return nil, err
	}
	// A trinket that attested before this process started makes this a
	// rehydrated restart even without a checkpoint on disk.
	r.announceRestart = loaded || dev.LastAttested(usigCounter) > 0
	r.loop.Start()
	return r, nil
}

// Self returns the replica's process ID.
func (r *Replica) Self() types.ProcessID { return r.tr.Self() }

// View returns the replica's current view (for tests and monitoring). Safe
// from any goroutine.
func (r *Replica) View() types.View { return types.View(r.viewMirror.Load()) }

// Close stops the replica's goroutines and then its timer plane, so nothing
// fires once Close has returned.
func (r *Replica) Close() error {
	r.loop.Close()
	return nil
}

// PendingTimers reports the number of armed runtime timers: at most one
// however many timeouts are queued, zero after Close (exposed for tests and
// monitoring).
func (r *Replica) PendingTimers() int {
	if r.loop.Armed() {
		return 1
	}
	return 0
}

// Start is the loop's first act on the run goroutine: a restarted replica
// announces its counter jump, and the view-0 leader solicits its first lease
// so the read fast path is live before the first read arrives.
func (r orderer) Start() {
	if r.announceRestart {
		r.sendRestart()
	}
	r.renewLease()
}

// checkUI verifies a UI over (kind, body) through the trinket fast path,
// building the binding in a pooled encoder (one binding per received
// replica message makes this the replica's hottest encoding).
func (r *Replica) checkUI(ui trinc.Attestation, kind byte, body []byte) error {
	e := wire.GetEncoder()
	appendUIBinding(e, kind, body)
	err := r.ver.CheckMessage(ui, e.Bytes())
	wire.PutEncoder(e)
	return err
}

// --- sending helpers ---

// attestAndSend attests (kind, body) on the USIG and broadcasts the
// envelope to all other replicas, returning the UI.
func (r *Replica) attestAndSend(kind byte, body []byte) (trinc.Attestation, error) {
	return r.attestAndSendTraced(kind, body, nil)
}

// attestAndSendTraced is attestAndSend with the batch span threaded through:
// the USIG call gets a ui-attest child span, and the broadcast carries the
// batch context so backups join the batch trace. A nil span degrades to the
// plain path (zero-context sends are byte-identical to pre-tracing frames).
func (r *Replica) attestAndSendTraced(kind byte, body []byte, span *tracing.Active) (trinc.Attestation, error) {
	tc := span.Context()
	att := r.tracer.Start("ui-attest", tc)
	next := r.dev.LastAttested(usigCounter) + 1
	e := wire.GetEncoder()
	appendUIBinding(e, kind, body)
	r.mx.sigSigns.Inc()
	ui, err := r.dev.Attest(usigCounter, next, e.Bytes())
	wire.PutEncoder(e)
	att.End()
	if err != nil {
		return trinc.Attestation{}, fmt.Errorf("minbft: usig attest: %w", err)
	}
	payload := encodeEnvelope(kind, body, &ui)
	if err := transport.BroadcastTraced(r.tr, r.m.Others(r.Self()), payload, tc); err != nil {
		return trinc.Attestation{}, fmt.Errorf("minbft: broadcast: %w", err)
	}
	// Retain own sends so lagging peers can gap-fill from us directly.
	r.storeMsg(r.Self(), ui.Seq, peerMsg{kind: kind, body: body, ui: ui})
	return ui, nil
}

// --- receive path ---

// HandleEnvelope decodes and dispatches one message the loop received.
func (r orderer) HandleEnvelope(env transport.Envelope) {
	kind, body, ui, err := decodeEnvelope(env.Payload)
	if err != nil {
		return
	}
	switch kind {
	case kindRequest:
		r.eng.HandleRequests(body, env.Trace, r.admitted)
		return
	case kindReadRequest:
		r.eng.HandleRead(body)
		return
	case kindFetch:
		r.handleFetch(env.From, body)
		return
	case kindStateFetch:
		r.eng.HandleStateFetch(env.From, body)
		return
	case kindStateResp:
		r.eng.HandleStateResp(body)
		return
	case kindFetchResp:
		// The response carries a stored original envelope; it is
		// self-authenticating (UI), so feed it back through this path.
		innerKind, innerBody, innerUI, err := decodeEnvelope(body)
		if err != nil || innerKind == kindFetch || innerKind == kindFetchResp || innerKind == kindRequest {
			return
		}
		// Relayed messages lose their original trace context; the batch
		// trace survives via whichever replica got the direct delivery.
		r.ingestReplicaMsg(innerKind, innerBody, innerUI, tracing.Context{})
		return
	}
	r.ingestReplicaMsg(kind, body, ui, env.Trace)
}

// ingestReplicaMsg authenticates replica traffic by its UI — the
// attestation, not the channel, names the originator, which makes every
// protocol message relayable (the fetch protocol depends on this) — and
// processes each trinket's messages in counter order, buffering gaps.
func (r *Replica) ingestReplicaMsg(kind byte, body []byte, ui *trinc.Attestation, tc tracing.Context) {
	if ui == nil || !r.m.Contains(ui.Trinket) || ui.Trinket == r.Self() || ui.Counter != usigCounter {
		return
	}
	from := ui.Trinket
	if ui.Seq <= r.lastUI[from] {
		return // already processed (retransmission or replay)
	}
	if _, held := r.uiBuffer[from][ui.Seq]; held {
		return // a verified copy is already waiting for the gap to close
	}
	// Only now pay for the signature: the two drops above change no state,
	// so a retransmit or replay flood costs map lookups, not verifications.
	if err := r.checkUI(*ui, kind, body); err != nil {
		return
	}
	buf := r.uiBuffer[from]
	if buf == nil {
		buf = make(map[types.SeqNum]peerMsg)
		r.uiBuffer[from] = buf
	}
	if kind == kindRestart {
		// An attested counter jump: the peer crashed and restarted.
		// Messages it attested before the crash but never delivered are
		// permanently lost, and waiting for them would stall its cursor
		// forever. Skipping them is omission — tolerated — not
		// equivocation: the trinket still binds at most one body per
		// counter value.
		for s := range buf {
			if s <= ui.Seq {
				delete(buf, s)
			}
		}
		r.lastUI[from] = ui.Seq
		msg := peerMsg{kind: kind, body: body, ui: *ui, tc: tc}
		r.storeMsg(from, ui.Seq, msg)
		r.dispatch(from, msg)
		r.drainBuffer(from)
		return
	}
	buf[ui.Seq] = peerMsg{kind: kind, body: body, ui: *ui, tc: tc}
	if ui.Seq > r.lastUI[from]+1 {
		// A gap: some earlier message of this trinket never arrived
		// (targeted omission or loss). Ask the others for it.
		r.scheduleFetch(from, r.lastUI[from]+1)
	}
	r.drainBuffer(from)
	// Self-certifying kinds act immediately even while cursor-gapped: their
	// handlers verify all embedded evidence and are idempotent, and a
	// replica catching up after a restart may close old gaps only through
	// the very messages below (NEW-VIEW evidence, checkpoint stability).
	if msg, still := buf[ui.Seq]; still && ui.Seq > r.lastUI[from] {
		switch kind {
		case kindNewView, kindCheckpoint:
			r.dispatch(from, msg)
		}
	}
}

// drainBuffer dispatches a peer's buffered messages in cursor order for as
// long as they are contiguous.
func (r *Replica) drainBuffer(from types.ProcessID) {
	buf := r.uiBuffer[from]
	for {
		next, ok := buf[r.lastUI[from]+1]
		if !ok {
			return
		}
		delete(buf, r.lastUI[from]+1)
		r.lastUI[from]++
		r.storeMsg(from, r.lastUI[from], next)
		r.dispatch(from, next)
	}
}

// storeMsg retains a processed message so lagging peers can fetch it
// (garbage-collected below the stable checkpoint, see advanceStable).
func (r *Replica) storeMsg(from types.ProcessID, seq types.SeqNum, msg peerMsg) {
	bySeq := r.msgStore[from]
	if bySeq == nil {
		bySeq = make(map[types.SeqNum]peerMsg)
		r.msgStore[from] = bySeq
	}
	bySeq[seq] = msg
}

// scheduleFetch arms a delayed gap-fill query for (peer, seq); if the gap
// closes on its own (late direct delivery) the fire is a no-op.
func (r *Replica) scheduleFetch(peer types.ProcessID, seq types.SeqNum) {
	r.loop.After(r.reqTimeout/4, timerEvent{kind: 'f', peer: peer, seq: seq})
}

func (r *Replica) handleFetch(from types.ProcessID, body []byte) {
	peer, seq, err := decodeFetchBody(body)
	if err != nil || !r.m.Contains(from) {
		return
	}
	msg, ok := r.msgStore[peer][seq]
	if !ok {
		// Garbage-collected below the stable checkpoint? Then the fetcher
		// can never gap-fill its way forward — offer the state instead.
		if seq <= r.gcVoteSeqs[peer] {
			r.eng.ServeState(from, 0)
		}
		return
	}
	inner := encodeEnvelope(msg.kind, msg.body, &msg.ui)
	_ = r.tr.Send(from, encodeEnvelope(kindFetchResp, inner, nil))
}

func (r *Replica) dispatch(from types.ProcessID, msg peerMsg) {
	switch msg.kind {
	case kindPrepare:
		r.handlePrepare(from, msg)
	case kindCommit:
		r.handleCommit(from, msg)
	case kindViewChange:
		r.handleViewChange(from, msg)
	case kindNewView:
		r.handleNewView(from, msg)
	case kindCheckpoint:
		r.handleCheckpoint(from, msg)
	case kindRestart:
		r.handleRestart(from, msg)
	case kindLeaseRequest:
		r.handleLeaseRequest(from, msg)
	case kindLeaseGrant:
		r.handleLeaseGrant(from, msg)
	}
}

// --- client requests ---

// admitted follows the admission of a client request: arm its liveness
// watchdog, then offer it to the batching valve.
func (r *Replica) admitted(req smr.Request) {
	r.loop.Watch(r.reqTimeout, timerEvent{kind: 't', pending: req.ID(), view: r.view})
	r.mx.watchdogs.Set(int64(r.loop.Watched()))
	r.eng.MaybePropose()
}

// watchdogLive reports whether a request watchdog can still demand a view
// change: its request is pending and it was recorded in the current view.
func (r *Replica) watchdogLive(te timerEvent) bool {
	return te.view == r.view && r.eng.Pending(te.pending)
}

// pruneWatchdogs drops the watchdogs at the head of the lane whose requests
// have executed (or whose view is over), so the lane — and the runtime timer
// behind it — tracks the oldest request still pending, and watchdog state is
// O(len(pending)), not O(arrival rate × reqTimeout).
func (r *Replica) pruneWatchdogs() {
	r.loop.Prune(r.watchdogLive)
	r.mx.watchdogs.Set(int64(r.loop.Watched()))
}

// HandleTimer handles one of the core's timeouts the loop found due.
func (r orderer) HandleTimer(te timerEvent) {
	switch te.kind {
	case 't':
		if r.watchdogLive(te) && !r.inVC {
			r.startViewChange(r.view + 1)
		}
	case 'v':
		if r.inVC && r.targetView == te.view {
			r.startViewChange(te.view + 1)
		}
	case 'f':
		if r.lastUI[te.peer] >= te.seq || te.retries >= maxFetchRetries {
			return // gap closed, or giving up on a withholding trinket
		}
		r.mx.fetchesSent.Inc()
		body := encodeFetchBody(te.peer, te.seq)
		_ = transport.Broadcast(r.tr, r.m.Others(r.Self()), encodeEnvelope(kindFetch, body, nil))
		next := te
		next.retries++
		r.loop.After(r.reqTimeout/2, next)
	case 'l':
		r.renewArmed = false
		r.renewLease()
	case 'g':
		r.grantExpired()
	}
}

// --- normal case ---

func (r *Replica) handlePrepare(from types.ProcessID, msg peerMsg) {
	p, err := decodePrepareBody(msg.body)
	if err != nil {
		return
	}
	if r.inVC || p.View != r.view || r.m.Leader(p.View) != from {
		return
	}
	// Resend cached replies for retransmitted requests inside the batch.
	// Stale requests are endorsed anyway: the batch is ordered as a unit and
	// execution dedups per request through the client table, so endorsing
	// a partially (or fully) executed batch is harmless.
	r.eng.ResendCached(p.Reqs)
	r.acceptPrepare(from, p, msg.ui, msg.tc)

	// Endorse: broadcast a COMMIT with our own UI — one per batch, not per
	// request; this is the amortization the batching buys.
	c := commit{
		View:      p.View,
		Primary:   from,
		PrepSeq:   msg.ui.Seq,
		ReqDigest: p.batchDigest(),
	}
	if _, err := r.attestAndSend(kindCommit, c.encodeBody()); err != nil {
		return
	}
	key := entryKey{p.View, msg.ui.Seq}
	if en := r.entries[key]; en != nil {
		// The entry can be gone already: if commit votes arrived ahead of the
		// prepare, acceptPrepare's own tryExecute may have executed the slot
		// and a checkpoint boundary may have collected it.
		en.votes[r.Self()] = true
	}
	r.tryExecute()
}

// acceptPrepare records an accepted prepare: entry, execution order slot,
// endorsed log for view changes, and the primary's implicit vote.
func (r *Replica) acceptPrepare(primary types.ProcessID, p prepare, prepUI trinc.Attestation, btc tracing.Context) {
	if prepUI.Seq <= r.gcSeqFloor {
		return // an executed slot the stable checkpoint already collected
	}
	key := entryKey{p.View, prepUI.Seq}
	en := r.entries[key]
	if en == nil {
		en = &entry{votes: make(map[types.ProcessID]bool)}
		r.entries[key] = en
	}
	if en.reqs == nil {
		digest := p.batchDigest()
		// If commits arrived first and built a shell entry for a different
		// batch digest, those votes endorsed something else: discard them.
		if len(en.votes) > 0 && en.reqDigest != digest {
			en.votes = make(map[types.ProcessID]bool)
		}
		en.reqs = p.Reqs
		en.reqDigest = digest
		en.prepUI = prepUI
		en.mine = primary == r.Self()
		// On the primary btc is the propose span's context, on backups the
		// context that arrived with the PREPARE frame.
		r.eng.BindBatch(&en.BatchTrace, btc)
		r.prepOrder = append(r.prepOrder, key)
		r.mx.openSlots.Set(int64(len(r.prepOrder) - r.execIdx))
		r.acceptedLog = append(r.acceptedLog, logEntry{
			View:    p.View,
			PrepSeq: prepUI.Seq,
			Reqs:    p.Reqs,
			PrepUI:  prepUI,
		})
	}
	en.votes[primary] = true
	r.tryExecute()
}

func (r *Replica) handleCommit(from types.ProcessID, msg peerMsg) {
	c, err := decodeCommitBody(msg.body)
	if err != nil {
		return
	}
	if r.inVC || c.View != r.view || r.m.Leader(c.View) != c.Primary || from == c.Primary {
		return
	}
	if c.PrepSeq <= r.gcSeqFloor {
		return // late endorsement of a slot the stable checkpoint collected
	}
	key := entryKey{c.View, c.PrepSeq}
	en := r.entries[key]
	if en == nil {
		// Commit arrived before the prepare: create a shell entry so the
		// vote is not lost; the prepare fills in the request. If the
		// prepare was withheld from us (targeted omission), the gap-fill
		// protocol recovers it from the peers that did receive it.
		en = &entry{votes: make(map[types.ProcessID]bool), reqDigest: c.ReqDigest}
		r.entries[key] = en
		r.scheduleFetch(c.Primary, c.PrepSeq)
	}
	if en.reqDigest != c.ReqDigest {
		return // endorsement of a different request: ignore
	}
	en.votes[from] = true
	r.tryExecute()
}

// tryExecute applies committed prepares (whole batches) in UI order, then
// gives the primary a chance to propose the next accumulated batch.
func (r *Replica) tryExecute() {
	executed := false
	for r.execIdx < len(r.prepOrder) {
		key := r.prepOrder[r.execIdx]
		en := r.entries[key]
		if en == nil || en.reqs == nil || en.executed {
			break
		}
		// Freshness is decided before applying the batch: a batch with at
		// least one unexecuted request advances the checkpoint count. The
		// view-change replay path counts by the same rule, and freshness at
		// a slot is a function of the executed prefix alone, so the count —
		// and the state digest voted at each count — is identical across
		// correct replicas regardless of which path executed the slot.
		fresh := r.eng.AnyFresh(en.reqs)
		if fresh && len(en.votes) < r.m.FPlusOne() {
			break
		}
		// An all-stale batch is stepped over without waiting for a commit
		// quorum: every request in it is already reflected in the client
		// table (typically because a state transfer installed a checkpoint
		// covering the slot), so applying it is a deterministic no-op at
		// every correct replica — and the commits completing its quorum may
		// have been garbage-collected at the peers, which would wedge the
		// pipeline behind it forever. Execute below still resends the cached
		// replies.
		en.executed = true
		r.execIdx++
		if en.mine && r.inFlight > 0 {
			r.inFlight--
		}
		r.eng.Execute(en.reqs, &en.BatchTrace)
		r.mx.openSlots.Set(int64(len(r.prepOrder) - r.execIdx))
		if fresh {
			r.countExecuted()
		}
		executed = true
	}
	if executed {
		r.pruneWatchdogs()
		r.eng.AfterExecute()
	}
}

// --- view change ---

func (r *Replica) startViewChange(target types.View) {
	if target <= r.view {
		return
	}
	// Grantor deferral: while our lease promise to the current primary is
	// live, demanding a new view could let a NEW-VIEW form (and a new
	// primary serve writes) while the old primary still serves leased reads.
	// Deferring just our VIEW-CHANGE send is enough: any valid NEW-VIEW
	// needs f+1 view-changes, and any f+1 set intersects the f+1 grantor
	// set in at least one replica (n = 2f+1) that will not send its VC until
	// its promise — which outlasts the primary's lease — has expired. While
	// deferred we also refuse new grants (handleLeaseRequest), so the
	// primary's lease runs out within one term and the 'g' timer resumes
	// the view change.
	if hold := r.grantUntil.Sub(r.loop.Now()); hold > 0 && r.leaseTerm > 0 {
		if target > r.deferredVC {
			r.deferredVC = target
		}
		if !r.grantTimerArmed {
			r.grantTimerArmed = true
			r.loop.After(hold, timerEvent{kind: 'g'})
		}
		return
	}
	r.revokeLease()
	r.inVC = true
	r.rdyVC.Store(true)
	r.targetView = target
	r.mx.viewChanges.Inc()
	r.mx.trace.Record("view-change", "demanding view %d (from view %d)", target, r.view)
	vc := viewChange{NewView: target, Log: r.acceptedLog, Cert: r.eng.Stable()}
	body := vc.encodeBody()
	ui, err := r.attestAndSend(kindViewChange, body)
	if err != nil {
		return
	}
	r.recordVC(r.Self(), signedVC{Sender: r.Self(), Body: body, UI: ui})
	// If the view change stalls (for example a faulty new primary), move on.
	r.loop.After(4*r.reqTimeout, timerEvent{kind: 'v', view: target})
}

func (r *Replica) handleViewChange(from types.ProcessID, msg peerMsg) {
	vc, err := decodeViewChangeBody(msg.body, maxLogEntries)
	if err != nil {
		return
	}
	if vc.NewView <= r.view {
		// A replica still trying to leave an older view missed our NEW-VIEW
		// (a restarted rejoiner, or targeted omission): resend the stored
		// installation evidence, which is self-certifying.
		if r.lastNVRaw != nil {
			_ = r.tr.Send(from, encodeEnvelope(kindFetchResp, r.lastNVRaw, nil))
		}
		return
	}
	r.recordVC(from, signedVC{Sender: from, Body: msg.body, UI: msg.ui})
}

// maxLogEntries bounds decoded view-change logs (generous: the accepted log
// is garbage-collected at every stable checkpoint, so correct replicas stay
// around two checkpoint intervals).
const maxLogEntries = 1 << 16

func (r *Replica) recordVC(from types.ProcessID, vc signedVC) {
	nv, err := decodeViewChangeBody(vc.Body, maxLogEntries)
	if err != nil {
		return
	}
	votes := r.vcVotes[nv.NewView]
	if votes == nil {
		votes = make(map[types.ProcessID]signedVC)
		r.vcVotes[nv.NewView] = votes
	}
	if _, dup := votes[from]; dup {
		return
	}
	votes[from] = vc

	// Join a view change once f+1 distinct replicas demand it (at least
	// one is correct), unless we are already changing to it or beyond.
	if len(votes) >= r.m.FPlusOne() && nv.NewView > r.view && (!r.inVC || r.targetView < nv.NewView) {
		r.startViewChange(nv.NewView)
	}

	// The designated new primary assembles and installs the view.
	if r.m.Leader(nv.NewView) == r.Self() && len(votes) >= r.m.FPlusOne() && nv.NewView > r.view {
		vcs := make([]signedVC, 0, len(votes))
		for _, v := range votes {
			vcs = append(vcs, v)
		}
		sort.Slice(vcs, func(i, j int) bool { return vcs[i].Sender < vcs[j].Sender })
		vcs = vcs[:r.m.FPlusOne()]
		install := newView{NewView: nv.NewView, VCs: vcs}
		body := install.encodeBody()
		ui, err := r.attestAndSend(kindNewView, body)
		if err != nil {
			return
		}
		r.installView(install, encodeEnvelope(kindNewView, body, &ui))
	}
}

func (r *Replica) handleNewView(from types.ProcessID, msg peerMsg) {
	nv, err := decodeNewViewBody(msg.body, r.m.N)
	if err != nil {
		return
	}
	if nv.NewView <= r.view || r.m.Leader(nv.NewView) != from {
		return
	}
	if len(nv.VCs) < r.m.FPlusOne() {
		return
	}
	seen := make(map[types.ProcessID]bool, len(nv.VCs))
	batch := make([]trinc.Attested, 0, len(nv.VCs))
	encs := make([]*wire.Encoder, 0, len(nv.VCs))
	defer func() {
		for _, e := range encs {
			wire.PutEncoder(e)
		}
	}()
	for _, vc := range nv.VCs {
		if seen[vc.Sender] || !r.m.Contains(vc.Sender) {
			return
		}
		seen[vc.Sender] = true
		// Each embedded view-change is verified by its sender's UI alone
		// (evidence check; contiguity was the live path's concern).
		if vc.UI.Trinket != vc.Sender || vc.UI.Counter != usigCounter {
			return
		}
		body, err := decodeViewChangeBody(vc.Body, maxLogEntries)
		if err != nil || body.NewView != nv.NewView {
			return
		}
		e := wire.GetEncoder()
		appendUIBinding(e, kindViewChange, vc.Body)
		encs = append(encs, e)
		batch = append(batch, trinc.Attested{Att: vc.UI, Msg: e.Bytes()})
	}
	// The NEW-VIEW is a quorum certificate: any bad UI rejects the whole
	// message, so the batch verifier's short-circuit semantics fit exactly,
	// and UIs of view changes we already processed live come from the cache.
	if r.ver.CheckMessages(batch) != nil {
		return
	}
	r.installView(nv, encodeEnvelope(kindNewView, msg.body, &msg.ui))
}

// installView deterministically recomputes the union log from the f+1
// view-change messages, executes everything not yet executed in (view,
// prepare-counter) order, and enters the new view. raw is the encoded
// NEW-VIEW envelope, retained so laggards demanding an older view can be
// handed the installation evidence directly.
func (r *Replica) installView(nv newView, raw []byte) {
	if nv.NewView <= r.view {
		return
	}
	if r.eng.CheckpointInterval() > 0 {
		// Checkpoint horizon: the highest verified stable checkpoint among
		// the embedded view changes. If it is ahead of our execution, the
		// surviving union suffix builds on state we do not have (its prefix
		// was garbage-collected at that checkpoint) — executing it here
		// would diverge. Install the checkpoint first, then resume.
		var horizon uint64
		for _, vc := range nv.VCs {
			body, err := decodeViewChangeBody(vc.Body, maxLogEntries)
			if err == nil && body.Cert.Count > horizon && r.eng.VerifyCert(body.Cert) == nil {
				horizon = body.Cert.Count
			}
		}
		if horizon > r.execCount {
			nvCopy := nv
			r.pendingNV = &nvCopy
			r.pendingNVRaw = raw
			r.eng.RequestState(horizon)
			return
		}
	}
	union := make(map[entryKey]logEntry)
	for _, vc := range nv.VCs {
		body, err := decodeViewChangeBody(vc.Body, maxLogEntries)
		if err != nil {
			continue
		}
		for _, le := range body.Log {
			if le.View >= nv.NewView {
				continue // prepares cannot predate their own view change
			}
			primary := r.m.Leader(le.View)
			// Entry evidence: the old primary's UI over the prepare body.
			if le.PrepUI.Trinket != primary || le.PrepUI.Seq != le.PrepSeq || le.PrepUI.Counter != usigCounter {
				continue
			}
			p := prepare{View: le.View, Reqs: le.Reqs}
			// Per-entry check; entries duplicated across the f+1 logs (the
			// common case — committed entries appear in every correct log)
			// hit the verified-signature cache after the first copy.
			if err := r.checkUI(le.PrepUI, kindPrepare, p.encodeBody()); err != nil {
				continue
			}
			union[entryKey{le.View, le.PrepSeq}] = le
		}
	}
	ordered := make([]logEntry, 0, len(union))
	for _, le := range union {
		ordered = append(ordered, le)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].View != ordered[j].View {
			return ordered[i].View < ordered[j].View
		}
		return ordered[i].PrepSeq < ordered[j].PrepSeq
	})
	for _, le := range ordered {
		// Same freshness rule as tryExecute, so the checkpoint count stays
		// consistent whichever path executes a slot.
		fresh := r.eng.AnyFresh(le.Reqs)
		r.eng.Replay(le.Reqs)
		if fresh {
			r.countExecuted()
		}
	}

	// Enter the new view with a clean per-view slate.
	r.view = nv.NewView
	r.viewMirror.Store(uint64(nv.NewView))
	r.mx.view.Set(int64(nv.NewView))
	r.mx.openSlots.Set(0)
	r.mx.trace.Record("new-view", "installed view %d (%d union entries)", nv.NewView, len(union))
	r.inVC = false
	r.rdyVC.Store(false)
	r.entries = make(map[entryKey]*entry)
	r.orderBase += uint64(r.execIdx)
	r.prepOrder = nil
	r.execIdx = 0
	r.inFlight = 0
	r.gcSeqFloor = 0
	r.eng.ResetProposed()
	r.lastNVRaw = raw
	r.pendingNV, r.pendingNVRaw = nil, nil
	for v := range r.vcVotes {
		if v <= r.view {
			delete(r.vcVotes, v)
		}
	}
	// Lease revocation: any lease we held belonged to the old view; queued
	// leased reads are flushed as fallback votes (their positions belonged
	// to the old view's proposals). Our grantor promise, if any, simply runs
	// out on its own. The new leader solicits a fresh lease immediately.
	r.revokeLease()
	if r.deferredVC <= r.view {
		r.deferredVC = 0
	}
	r.renewLease()

	// Re-propose (or chase) requests still pending — re-batched: a pending
	// batch lost with the old view comes back as (part of) a fresh batch
	// under the new primary's UI, and per-request client-table dedup keeps
	// any overlap with already-executed entries harmless.
	r.eng.MaybePropose()
	// Every request still pending is the new primary's to order from now:
	// watch each afresh, then drop the old view's watchdogs, which sit ahead
	// of these on the lane and can no longer demand anything.
	r.eng.RangePending(func(id smr.RequestID) {
		r.loop.Watch(r.reqTimeout, timerEvent{kind: 't', pending: id, view: r.view})
	})
	r.pruneWatchdogs()
}
