package smr

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"unidir/internal/obs"
	"unidir/internal/obs/tracing"
	"unidir/internal/syncx"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// Call is one in-flight pipelined request. Wait on Done (or call Result,
// which blocks) to observe completion.
type Call struct {
	req    Request
	done   chan struct{}
	result []byte
	err    error
}

// Done is closed when the call completes (result or error).
func (c *Call) Done() <-chan struct{} { return c.done }

// Result blocks until the call completes and returns its outcome.
func (c *Call) Result() ([]byte, error) {
	<-c.done
	return c.result, c.err
}

// Request returns the request this call submitted.
func (c *Call) Request() Request { return c.req }

// Pipeline is the asynchronous counterpart of Client: up to `window`
// requests in flight at once, each still completed by `need` (f+1) matching
// replies and retransmitted on a timer until then. A closed-loop client
// offers a batching primary exactly one request per round trip; a pipeline
// keeps the window full, which is what gives the primary something to
// batch. Safe for concurrent use; it owns its transport endpoint's receive
// side, so do not share the endpoint with other readers.
//
// With WithAdaptiveWindow the effective window becomes the client half of
// end-to-end backpressure: it shrinks multiplicatively when the cluster
// sheds (ErrOverloaded completions) or the retransmit timer finds requests
// still outstanding, and grows back additively — one slot per window of
// clean completions — up to the configured maximum.
type Pipeline struct {
	tr         transport.Transport
	replicas   []types.ProcessID
	need       int
	id         uint64
	retry      time.Duration
	encode     func([]Request) []byte
	readEncode func(ReadRequest) []byte
	// readBatchEncode wraps several encoded ReadRequest bodies in one
	// protocol envelope; the send loop uses it to coalesce every read
	// queued while the previous frame was in flight into a single frame.
	readBatchEncode func([][]byte) []byte
	// out feeds the send loop: SubmitRead and the retransmit tick enqueue,
	// sendLoop drains and sends one frame per kind per wakeup. A fresh
	// write leaves from Submit itself, in a frame of its own.
	out      *syncx.Queue[outItem]
	readNeed int // matching fallback votes required (default: need)

	// The send loop's buffers, reused across wakeups; only it touches them.
	sendReads, sendWrites []outItem
	frameReqs             []Request
	// resendNums is the retransmit tick's buffer; submitReq is Submit's
	// one-request frame and opBuf its op. All are used under mu.
	resendNums []uint64
	submitReq  [1]Request
	opBuf      []byte

	// avail holds the window tokens: Submit takes one, completion returns
	// one (unless swallowed to pay down a window decrease — see debt).
	avail         chan struct{}
	winMax        int
	winMin        int // 0: fixed window (no adaptation)
	submitTimeout time.Duration

	// readAvail holds the read-window tokens. Reads have their own window
	// (they never occupy a consensus slot, so they should not compete with
	// writes for in-flight budget) and no AIMD: a leased read is one round
	// trip to one replica, and fallback reads already self-limit by needing
	// a quorum of replies.
	readAvail  chan struct{}
	readWindow int

	mu       sync.Mutex
	nextNum  uint64
	inflight map[uint64]*pipeCall
	// readInflight tracks outstanding reads. Nums are drawn from the same
	// nextNum counter as writes, so a number identifies exactly one of the
	// two maps and reply routing cannot confuse a read with a write.
	readInflight map[uint64]*readCall
	// leaderHint is the replica first reads are sent to: the last *targeted*
	// replica that answered with a leased reply, or replicas[0] before any
	// has. Sending the first copy only there is what makes a leased read two
	// messages instead of a broadcast and a quorum of replies. The hint only
	// ever moves when the targeted replica confirms or disclaims a lease
	// (or goes silent) — an unsolicited leased reply cannot capture it.
	leaderHint types.ProcessID
	closed     bool
	curWindow  int
	// debt counts tokens owed after a window decrease: completions swallow
	// their token instead of returning it until debt reaches zero. The
	// invariant is tokens-in-circulation == curWindow + debt.
	debt       int
	succ       int // clean completions since the last additive increase
	lastShrink time.Time

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// tracer mints the client-submit root span per sampled request (nil
	// without WithPipelineTracer; every call is nil-safe).
	tracer *tracing.Tracer

	// Metrics handles (nil without WithPipelineMetrics; nil-safe no-ops).
	mxSubmitted     *obs.Counter
	mxCompleted     *obs.Counter
	mxInflight      *obs.Gauge
	mxWindow        *obs.Gauge
	mxSubmitSheds   *obs.Counter
	mxOverloadVotes *obs.Counter

	// Read-path metrics (nil-safe like the rest).
	mxReadsSubmitted  *obs.Counter
	mxReadsCompleted  *obs.Counter
	mxLeasedReads     *obs.Counter
	mxFallbackReads   *obs.Counter
	mxReadEscalations *obs.Counter
	mxReadLatency     *obs.Histogram
}

// pipeCall is the pipeline's state for one in-flight write; Submit hands out
// its call, so a write is one allocation besides its done channel.
type pipeCall struct {
	call   Call
	sentAt time.Time // Submit's instant: the retransmit tick's yardstick
	votes  replyVotes
	// voteBuf backs votes for groups of up to four replicas.
	voteBuf [4]replyVote
	span    *tracing.Active // client-submit root; nil when unsampled
	tc      tracing.Context // propagated with every (re)send
}

// PipelineOption configures NewPipeline.
type PipelineOption func(*Pipeline)

// WithPipelineRequestEncoder sets the protocol-specific request envelope
// encoder, like smr.WithRequestEncoder for the closed-loop client. Submit
// hands it one request, the send loop every resend of one frame.
func WithPipelineRequestEncoder(encode func([]Request) []byte) PipelineOption {
	return func(p *Pipeline) { p.encode = encode }
}

// WithPipelineMetrics publishes the pipeline's depth and throughput into
// reg, labelled by client identity: smr_requests_submitted_total,
// smr_requests_completed_total, the smr_pipeline_depth and
// smr_pipeline_window gauges, and the smr_submit_sheds_total /
// smr_overload_replies_total shed counters.
func WithPipelineMetrics(reg *obs.Registry) PipelineOption {
	return func(p *Pipeline) {
		if reg == nil {
			return
		}
		p.mxSubmitted = reg.Counter(obs.Name("smr_requests_submitted_total", "client", p.id))
		p.mxCompleted = reg.Counter(obs.Name("smr_requests_completed_total", "client", p.id))
		p.mxInflight = reg.Gauge(obs.Name("smr_pipeline_depth", "client", p.id))
		p.mxWindow = reg.Gauge(obs.Name("smr_pipeline_window", "client", p.id))
		p.mxSubmitSheds = reg.Counter(obs.Name("smr_submit_sheds_total", "client", p.id))
		p.mxOverloadVotes = reg.Counter(obs.Name("smr_overload_replies_total", "client", p.id))
		p.mxReadsSubmitted = reg.Counter(obs.Name("smr_reads_submitted_total", "client", p.id))
		p.mxReadsCompleted = reg.Counter(obs.Name("smr_reads_completed_total", "client", p.id))
		p.mxLeasedReads = reg.Counter(obs.Name("smr_leased_reads_total", "client", p.id))
		p.mxFallbackReads = reg.Counter(obs.Name("smr_fallback_reads_total", "client", p.id))
		p.mxReadEscalations = reg.Counter(obs.Name("smr_read_escalations_total", "client", p.id))
		p.mxReadLatency = reg.Histogram(obs.Name("smr_read_latency_seconds", "client", p.id), obs.LatencyBuckets)
	}
}

// WithPipelineTracer makes the pipeline the head-sampling point of the
// request lifecycle: each Submit that wins the sampling decision opens a
// client-submit root span, propagates its context with the request (and all
// retransmits), and ends the span when f+1 matching replies arrive. A frame
// carries one trace context, its first request's, so the send loop opens a
// new resend frame at every sampled request.
func WithPipelineTracer(t *tracing.Tracer) PipelineOption {
	return func(p *Pipeline) { p.tracer = t }
}

// WithSubmitTimeout bounds how long Submit may block on an exhausted
// window before giving up with ErrOverloaded — the client-side admission
// deadline. Zero (the default) keeps the legacy behavior of blocking until
// a slot frees or the context ends.
func WithSubmitTimeout(d time.Duration) PipelineOption {
	return func(p *Pipeline) { p.submitTimeout = d }
}

// WithPipelineReadEncoder sets the protocol-specific read-request envelope
// encoder and thereby enables the read fast path (SubmitRead/InvokeRead).
func WithPipelineReadEncoder(encode func(ReadRequest) []byte) PipelineOption {
	return func(p *Pipeline) { p.readEncode = encode }
}

// WithPipelineReadBatchEncoder sets the protocol-specific envelope encoder
// for coalesced read submissions. Without it the raw smr batch body is
// sent, which suits transports that deliver bodies unenveloped (tests).
func WithPipelineReadBatchEncoder(encode func([][]byte) []byte) PipelineOption {
	return func(p *Pipeline) { p.readBatchEncode = encode }
}

// WithReadQuorum sets how many matching fallback votes complete a quorum
// read. Defaults to the write quorum (f+1); PBFT clients pass 2f+1 so a
// fallback read intersects every committed write's executor set.
func WithReadQuorum(n int) PipelineOption {
	return func(p *Pipeline) { p.readNeed = n }
}

// WithReadWindow bounds in-flight reads independently of the write window.
// Zero (the default) follows UNIDIR_READ_WINDOW, then the write window.
func WithReadWindow(k int) PipelineOption {
	return func(p *Pipeline) { p.readWindow = k }
}

// WithAdaptiveWindow turns on AIMD window adaptation between min in-flight
// slots and the configured window: multiplicative decrease on overload
// sheds and retransmissions, additive increase on clean completions. min
// values below 1 are raised to 1.
func WithAdaptiveWindow(min int) PipelineOption {
	return func(p *Pipeline) {
		if min < 1 {
			min = 1
		}
		p.winMin = min
	}
}

// NewPipeline creates a pipelined client with the given unique identity.
// need is the number of matching replies required (use f+1); window is the
// maximum number of requests in flight (Submit blocks when it is full).
func NewPipeline(tr transport.Transport, replicas []types.ProcessID, need int, id uint64, retry time.Duration, window int, opts ...PipelineOption) (*Pipeline, error) {
	if need < 1 || need > len(replicas) {
		return nil, fmt.Errorf("smr: need %d of %d replicas", need, len(replicas))
	}
	if window < 1 {
		return nil, fmt.Errorf("smr: pipeline window %d", window)
	}
	if retry <= 0 {
		retry = 50 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pipeline{
		tr:              tr,
		replicas:        replicas,
		need:            need,
		id:              id,
		retry:           retry,
		encode:          EncodeRequests,
		readEncode:      func(r ReadRequest) []byte { return r.Encode() },
		readBatchEncode: EncodeReadRequestBatch,
		out:             syncx.NewQueue[outItem](),
		readNeed:        need,
		avail:           make(chan struct{}, window),
		winMax:          window,
		curWindow:       window,
		inflight:        make(map[uint64]*pipeCall),
		readInflight:    make(map[uint64]*readCall),
		leaderHint:      replicas[0],
		ctx:             ctx,
		cancel:          cancel,
	}
	// Wall-clock seed, same reasoning as NewClient.
	p.nextNum = uint64(time.Now().UnixNano())
	for _, opt := range opts {
		opt(p)
	}
	if p.winMin > p.winMax {
		p.winMin = p.winMax
	}
	if p.readNeed < 1 || p.readNeed > len(replicas) {
		return nil, fmt.Errorf("smr: read quorum %d of %d replicas", p.readNeed, len(replicas))
	}
	if p.readWindow <= 0 {
		if k := DefaultReadWindow(); k > 0 {
			p.readWindow = k
		} else {
			p.readWindow = window
		}
	}
	p.readAvail = make(chan struct{}, p.readWindow)
	for i := 0; i < p.readWindow; i++ {
		p.readAvail <- struct{}{}
	}
	for i := 0; i < p.curWindow; i++ {
		p.avail <- struct{}{}
	}
	p.mxWindow.Set(int64(p.curWindow))
	p.wg.Add(3)
	go p.recvLoop()
	go p.retransmitLoop()
	go p.sendLoop()
	return p, nil
}

// Submit sends op and returns without waiting for completion. It blocks
// only while the in-flight window is full; with a submit timeout set, a
// window still full past the deadline fails fast with ErrOverloaded
// instead of wedging the caller.
//
// The request frame is the write's one buffer: op is copied into it, by way
// of a buffer the pipeline reuses, and the call keeps the frame's copy.
// Nothing keeps op itself, so the caller may reuse it once Submit returns,
// and may build it on the stack.
func (p *Pipeline) Submit(ctx context.Context, op []byte) (*Call, error) {
	var timeout <-chan time.Time
	if p.submitTimeout > 0 {
		tm := time.NewTimer(p.submitTimeout)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case <-p.avail:
	case <-timeout:
		p.mxSubmitSheds.Inc()
		p.noteOverload()
		return nil, fmt.Errorf("smr: window exhausted for %v: %w", p.submitTimeout, ErrOverloaded)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.ctx.Done():
		return nil, ErrClientClosed
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClientClosed
	}
	p.nextNum++
	p.opBuf = append(p.opBuf[:0], op...)
	req := Request{Client: p.id, Num: p.nextNum, Op: p.opBuf}
	p.submitReq[0] = req
	payload := p.encode(p.submitReq[:])
	p.submitReq[0] = Request{}
	req.Op = inFrame(payload, req.Op)
	span := p.tracer.Root("client-submit")
	pc := &pipeCall{call: Call{req: req, done: make(chan struct{})}, sentAt: time.Now(), span: span, tc: span.Context()}
	pc.votes = pc.voteBuf[:0]
	p.inflight[req.Num] = pc
	depth := len(p.inflight)
	p.mu.Unlock()
	p.mxSubmitted.Inc()
	p.mxInflight.Set(int64(depth))
	if err := transport.BroadcastTraced(p.tr, p.replicas, payload, pc.tc); err != nil {
		p.complete(req.Num, nil, fmt.Errorf("smr: send request: %w", err))
		return nil, fmt.Errorf("smr: send request: %w", err)
	}
	return &pc.call, nil
}

// inFrame returns the copy of op that frame carries — a request encoder
// writes every op into its frame verbatim (EncodeRequests) — or, should the
// frame hold none, a fresh copy of op. Any copy will do: it is op's bytes, in
// a frame that nothing writes to once it is sent.
func inFrame(frame, op []byte) []byte {
	if i := bytes.LastIndex(frame, op); i >= 0 {
		return frame[i : i+len(op) : i+len(op)]
	}
	return append([]byte(nil), op...)
}

// Invoke submits op and blocks until completion — Client.Invoke semantics
// over the pipeline.
func (p *Pipeline) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	call, err := p.Submit(ctx, op)
	if err != nil {
		return nil, err
	}
	select {
	case <-call.done:
		return call.result, call.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Window reports the current effective window (== the configured window
// unless adaptation shrank it).
func (p *Pipeline) Window() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.curWindow
}

// noteOverload registers one congestion signal: multiplicative decrease,
// rate-limited to one cut per retry interval so a burst of sheds from a
// single overloaded window counts once.
func (p *Pipeline) noteOverload() {
	if p.winMin <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shrinkLocked(time.Now())
}

func (p *Pipeline) shrinkLocked(now time.Time) {
	if gap := p.retry / 4; now.Sub(p.lastShrink) < gap {
		return
	}
	p.lastShrink = now
	p.succ = 0
	next := p.curWindow / 2
	if next < p.winMin {
		next = p.winMin
	}
	if next == p.curWindow {
		return
	}
	p.debt += p.curWindow - next
	p.curWindow = next
	p.mxWindow.Set(int64(p.curWindow))
}

// growLocked credits one clean completion and, once a full window of them
// accumulates, widens the window by one slot — paying down decrease debt
// first so tokens in circulation stay equal to curWindow + debt.
func (p *Pipeline) growLocked() bool {
	p.succ++
	if p.succ < p.curWindow || p.curWindow >= p.winMax {
		return false
	}
	p.succ = 0
	p.curWindow++
	p.mxWindow.Set(int64(p.curWindow))
	if p.debt > 0 {
		p.debt--
		return false // reused a token already in circulation
	}
	return true // release one extra token
}

// complete finishes the in-flight call num, if still present, and returns
// its window token — unless a pending window decrease swallows it.
func (p *Pipeline) complete(num uint64, result []byte, err error) {
	p.mu.Lock()
	pc := p.inflight[num]
	if pc == nil {
		p.mu.Unlock()
		return
	}
	delete(p.inflight, num)
	depth := len(p.inflight)
	extra := false
	if p.winMin > 0 {
		if errors.Is(err, ErrOverloaded) {
			p.shrinkLocked(time.Now())
		} else if err == nil {
			extra = p.growLocked()
		}
	}
	swallow := p.debt > 0
	if swallow {
		p.debt--
	}
	p.mu.Unlock()
	pc.span.End()
	p.mxCompleted.Inc()
	p.mxInflight.Set(int64(depth))
	pc.call.result = result
	pc.call.err = err
	close(pc.call.done)
	if !swallow {
		p.avail <- struct{}{}
	}
	if extra {
		p.avail <- struct{}{}
	}
}

func (p *Pipeline) recvLoop() {
	defer p.wg.Done()
	for {
		env, err := p.tr.Recv(p.ctx)
		if err != nil {
			return
		}
		p.handleFrame(env)
	}
}

// handleFrame routes every reply of one received frame. A replica coalesces
// its replies to us — those of one executed batch, or the reads of one
// event-loop drain — into a sentinel-prefixed batch frame; the check is one
// integer compare for every other frame shape. The replies are decoded in
// place: their results alias the frame.
func (p *Pipeline) handleFrame(env transport.Envelope) {
	if !eachBatchEntry(env.Payload, func(b []byte) { p.handleReply(b, env.From) }) {
		p.handleReply(env.Payload, env.From)
	}
}

// handleReply routes one replica's reply, a write's or a read's, to its
// call.
func (p *Pipeline) handleReply(b []byte, from types.ProcessID) {
	rep, err := DecodeReply(b)
	if err != nil {
		// Not a write reply; a read reply carries the same prefix plus the
		// trailing exec watermark, so DecodeReply fails on the leftover
		// bytes and we try the read shape.
		if rr, rerr := DecodeReadReply(b); rerr == nil {
			p.handleReadReply(rr, from)
		}
		return
	}
	if rep.Client != p.id || rep.Replica != from {
		return
	}
	p.mu.Lock()
	pc := p.inflight[rep.Num]
	if pc == nil {
		p.mu.Unlock()
		return
	}
	agreed := pc.votes.add(rep) >= p.need
	p.mu.Unlock()
	if !agreed {
		return
	}
	if rep.Code == ReplyOverloaded {
		p.mxOverloadVotes.Inc()
		p.complete(rep.Num, nil, fmt.Errorf("smr: request %d shed by %d replicas: %w", rep.Num, p.need, ErrOverloaded))
		return
	}
	// Result aliases the reply frame, which the transport never reuses, so
	// the caller may keep it.
	p.complete(rep.Num, rep.Result, nil)
}

// retransmitLoop resends overdue requests each retry period, covering loss,
// replica restarts, and view changes in one mechanism, like the closed-loop
// client's per-request timer.
func (p *Pipeline) retransmitLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.retry)
	defer t.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-t.C:
		}
		p.retransmit(time.Now())
	}
}

// retransmit is one retry tick. It resends, through the send loop and in
// Num order, the writes outstanding for a full retry period. A fresh write
// is still on its way: resent, it arrives as a late duplicate after the
// replicas executed it, and they shed it. A resend of Num k+1 ahead of k
// would make the replicas execute k+1 first and shed k. A non-empty resend
// set is also a congestion signal for the adaptive window: requests outlived
// a full retry period without f+1 replies.
func (p *Pipeline) retransmit(now time.Time) {
	p.mu.Lock()
	due := p.resendNums[:0]
	for num, pc := range p.inflight {
		if now.Sub(pc.sentAt) >= p.retry {
			due = append(due, num)
		}
	}
	slices.Sort(due)
	if p.winMin > 0 && len(due) > 0 {
		p.shrinkLocked(now)
	}
	for _, num := range due {
		// Retransmits carry the same context: wherever the request finally
		// lands, it stays on its trace.
		pc := p.inflight[num]
		p.out.Push(outItem{num: num, op: pc.call.req.Op, tc: pc.tc})
	}
	p.resendNums = due[:0]
	// Reads that outlived a retry period lost their leader hint (or the
	// leader lost its lease mid-read): go wide and finish as a quorum read.
	// A read still wide after ANOTHER full period is stuck on mismatched
	// votes — hand it to the ordering path instead of asking the same
	// diverging replicas again.
	var resendReads [][]byte
	for num, rc := range p.readInflight {
		if rc.ordered || now.Sub(rc.start) < p.retry {
			continue
		}
		if rc.broadcasted {
			p.escalateReadLocked(num, rc)
			continue
		}
		rc.broadcasted = true
		if rc.sent {
			p.advanceHintLocked(rc.sentTo)
		}
		resendReads = append(resendReads, p.readPayloadLocked(rc))
	}
	p.mu.Unlock()
	for _, payload := range resendReads {
		_ = transport.Broadcast(p.tr, p.replicas, payload)
	}
}

// outItem is one submission queued for the send loop, a read or a resend of
// a write. The wire forms are built at send time.
type outItem struct {
	num  uint64
	op   []byte
	read bool
	tc   tracing.Context // a write's trace context; zero when unsampled
}

// sendLoop sends what the pipeline queued for it: each wakeup drains
// everything queued since the last one and sends the reads to the leader
// hint and the resent writes to every replica, each kind in as few frames
// as it can. A lone request goes out as a frame of one.
func (p *Pipeline) sendLoop() {
	defer p.wg.Done()
	var spare []outItem
	for {
		items, err := p.out.PopAllSwap(p.ctx, spare)
		if err != nil {
			return
		}
		p.sendItems(items)
		clear(items)
		spare = items[:0]
	}
}

// sendItems sends one wakeup's worth of queued items.
func (p *Pipeline) sendItems(items []outItem) {
	p.mu.Lock()
	leader := p.leaderHint
	reads, writes := p.sendReads[:0], p.sendWrites[:0]
	for _, it := range items {
		switch {
		case it.read:
			if rc := p.readInflight[it.num]; rc != nil {
				// Stamp the target before anything is on the wire: a leased
				// reply is only trusted when it comes from the replica the
				// read was aimed at.
				rc.sentTo, rc.sent = leader, true
				reads = append(reads, it)
			}
		case p.inflight[it.num] != nil: // a completed write is not resent
			writes = append(writes, it)
		}
	}
	p.mu.Unlock()
	p.sendReadFrames(leader, reads)
	p.sendWriteFrames(writes)
	clear(reads)
	clear(writes)
	p.sendReads, p.sendWrites = reads[:0], writes[:0]
}

// sendWriteFrames broadcasts resent writes in Num order, MaxFrameRequests at
// most to a frame. A frame carries one trace context, its first request's,
// so a sampled request opens a frame of its own and the requests after it
// in that frame stay unsampled at the replicas.
func (p *Pipeline) sendWriteFrames(writes []outItem) {
	byNum := func(a, b outItem) int { return cmp.Compare(a.num, b.num) }
	if !slices.IsSortedFunc(writes, byNum) {
		slices.SortFunc(writes, byNum)
	}
	for len(writes) > 0 {
		n := 1
		for n < len(writes) && n < MaxFrameRequests && !writes[n].tc.Valid() {
			n++
		}
		frame := writes[:n]
		writes = writes[n:]
		reqs := p.frameReqs[:0]
		for _, it := range frame {
			reqs = append(reqs, Request{Client: p.id, Num: it.num, Op: it.op})
		}
		payload := p.encode(reqs)
		clear(reqs)
		p.frameReqs = reqs[:0]
		if err := transport.BroadcastTraced(p.tr, p.replicas, payload, frame[0].tc); err != nil {
			for _, it := range frame {
				p.complete(it.num, nil, fmt.Errorf("smr: send request: %w", err))
			}
		}
	}
}

// Close stops the pipeline; outstanding calls complete with ErrClientClosed.
// The underlying transport is not closed.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	stuck := p.inflight
	p.inflight = make(map[uint64]*pipeCall)
	stuckReads := p.readInflight
	p.readInflight = make(map[uint64]*readCall)
	p.mu.Unlock()
	p.cancel()
	p.mxInflight.Set(0)
	for _, pc := range stuck {
		pc.span.End()
		pc.call.err = ErrClientClosed
		close(pc.call.done)
	}
	for _, rc := range stuckReads {
		rc.call.err = ErrClientClosed
		close(rc.call.done)
	}
	p.wg.Wait()
	return nil
}
