package smr

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"unidir/internal/obs/tracing"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// The pipeline's request frames, send loop, retransmit tick and vote rule,
// against a transport that records every frame and lets the test play the
// replicas.

// frameNet is the client's endpoint: Send records (or only counts) each
// frame and signals sent; Recv delivers what the test injects. With gate
// set, Send signals entered and blocks until the test closes the gate.
type frameNet struct {
	mu      sync.Mutex
	frames  []sentFrame
	tcs     []tracing.Context // each frame's trace context
	quiet   bool
	gate    chan struct{}
	entered chan struct{}
	sent    chan struct{}
	inject  chan transport.Envelope
}

func newFrameNet() *frameNet {
	return &frameNet{
		entered: make(chan struct{}, 1<<12),
		sent:    make(chan struct{}, 1<<12),
		inject:  make(chan transport.Envelope, 64),
	}
}

func (n *frameNet) Self() types.ProcessID { return 3 }
func (n *frameNet) Close() error          { return nil }

func (n *frameNet) Send(to types.ProcessID, payload []byte) error {
	return n.SendTraced(to, payload, tracing.Context{})
}

func (n *frameNet) SendTraced(to types.ProcessID, payload []byte, tc tracing.Context) error {
	if n.gate != nil {
		n.entered <- struct{}{}
		<-n.gate
	}
	if !n.quiet {
		n.mu.Lock()
		n.frames = append(n.frames, sentFrame{to, payload})
		n.tcs = append(n.tcs, tc)
		n.mu.Unlock()
	}
	n.sent <- struct{}{}
	return nil
}

func (n *frameNet) Recv(ctx context.Context) (transport.Envelope, error) {
	select {
	case env := <-n.inject:
		return env, nil
	case <-ctx.Done():
		return transport.Envelope{}, ctx.Err()
	}
}

// await waits for k more sends.
func (n *frameNet) await(t *testing.T, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		select {
		case <-n.sent:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d sends seen", i, k)
		}
	}
}

// nums returns, per replica, the request numbers of every frame sent to
// it, one slice per frame, and forgets the recorded frames.
func (n *frameNet) nums(t *testing.T) map[types.ProcessID][][]uint64 {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[types.ProcessID][][]uint64)
	for _, f := range n.frames {
		reqs, err := DecodeRequests(f.payload, MaxFrameRequests)
		if err != nil {
			t.Fatalf("frame to %v: %v", f.to, err)
		}
		var ns []uint64
		for _, r := range reqs {
			ns = append(ns, r.Num)
		}
		out[f.to] = append(out[f.to], ns)
	}
	n.frames, n.tcs = nil, nil
	return out
}

// collect waits until replica 0 has been sent k request numbers and
// returns them in the order they were sent.
func (n *frameNet) collect(t *testing.T, k int) []uint64 {
	t.Helper()
	var got []uint64
	for len(got) < k {
		n.await(t, 1)
		for _, frame := range n.nums(t)[0] {
			got = append(got, frame...)
		}
	}
	return got
}

var sendReplicas = []types.ProcessID{0, 1, 2}

// newSendPipeline is a window-64 pipeline over net whose own retransmit
// ticker never fires during a test.
func newSendPipeline(t *testing.T, net *frameNet) *Pipeline {
	t.Helper()
	p, err := NewPipeline(net, sendReplicas, 2, 3, time.Hour, 64)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// overdue backdates the given requests' sends by a full retry period, so
// that the next retry tick resends them.
func overdue(p *Pipeline, nums ...uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, num := range nums {
		p.inflight[num].sentAt = time.Now().Add(-p.retry)
	}
}

// submitN submits n writes and waits until each has left, in a frame of its
// own to every replica of p.
func submitN(t *testing.T, p *Pipeline, net *frameNet, n int) []*Call {
	t.Helper()
	var calls []*Call
	for i := 0; i < n; i++ {
		call, err := p.Submit(context.Background(), []byte("op"))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		calls = append(calls, call)
	}
	net.await(t, n*len(p.replicas))
	for id, frames := range net.nums(t) {
		if len(frames) != n {
			t.Fatalf("replica %v got %d frames for %d submits: %v", id, len(frames), n, frames)
		}
		for i, f := range frames {
			if !slices.Equal(f, []uint64{calls[i].Request().Num}) {
				t.Fatalf("replica %v frame %d is %v, want request %d alone", id, i, f, calls[i].Request().Num)
			}
		}
	}
	return calls
}

// TestPipelineSendLoopCoalesces: a write leaves from Submit at once, in a
// frame of its own; resends queued while the send loop is still sending
// leave together, as one frame per replica in Num order.
func TestPipelineSendLoopCoalesces(t *testing.T) {
	net := newFrameNet()
	p := newSendPipeline(t, net)
	calls := submitN(t, p, net, 10)
	base := calls[0].Request().Num

	net.gate = make(chan struct{})
	overdue(p, base)
	p.retransmit(time.Now())
	<-net.entered // the send loop is inside the first resend's first Send
	for i := range calls {
		overdue(p, base+uint64(i))
	}
	p.retransmit(time.Now())
	close(net.gate)
	net.await(t, 2*len(sendReplicas))
	want := [][]uint64{{base}, {base, base + 1, base + 2, base + 3, base + 4, base + 5, base + 6, base + 7, base + 8, base + 9}}
	got := net.nums(t)
	for _, id := range sendReplicas {
		if len(got[id]) != 2 || !slices.Equal(got[id][0], want[0]) || !slices.Equal(got[id][1], want[1]) {
			t.Fatalf("replica %v frames %v, want %v", id, got[id], want)
		}
	}
}

// TestPipelineFrameOpensAtSampledRequest: a frame carries its first
// request's trace context, so the send loop starts a new frame at every
// sampled request; an unsampled one rides in the frame before it.
func TestPipelineFrameOpensAtSampledRequest(t *testing.T) {
	net := newFrameNet()
	// Every second root is sampled: Submits 2 and 4 of these five.
	p, err := NewPipeline(net, sendReplicas[:1], 1, 3, time.Hour, 64,
		WithPipelineTracer(tracing.NewTracer("c", 2, tracing.NewSpanBuffer(16))))
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	t.Cleanup(func() { _ = p.Close() })
	calls := submitN(t, p, net, 5)
	num := func(i int) uint64 { return calls[i].Request().Num }

	net.gate = make(chan struct{})
	overdue(p, num(0))
	p.retransmit(time.Now())
	<-net.entered // the first resend is on its way; the next tick's queue
	overdue(p, num(0), num(1), num(2), num(3), num(4))
	p.retransmit(time.Now())
	close(net.gate)
	net.await(t, 4)
	net.mu.Lock()
	tcs := slices.Clone(net.tcs)
	net.mu.Unlock()
	got := net.nums(t)[0]
	want := [][]uint64{{num(0)}, {num(0)}, {num(1), num(2)}, {num(3), num(4)}}
	if len(got) != 4 || !slices.Equal(got[1], want[1]) || !slices.Equal(got[2], want[2]) || !slices.Equal(got[3], want[3]) {
		t.Fatalf("frames %v, want %v", got, want)
	}
	p.mu.Lock()
	sampled := []tracing.Context{p.inflight[num(1)].tc, p.inflight[num(3)].tc}
	p.mu.Unlock()
	if !sampled[0].Sampled || !sampled[1].Sampled || tcs[1].Valid() || tcs[2] != sampled[0] || tcs[3] != sampled[1] {
		t.Fatalf("frame contexts %+v, want none, then requests 2 and 4's %+v", tcs[1:], sampled)
	}
}

// TestPipelineRetransmitsOverdueInOrder: with 64 requests in flight and one
// of them fresh, a retry tick resends the 63 overdue ones in ascending Num
// order and leaves the fresh one alone: a resend of Num k+1 that overtook a
// still-queued k would make the replicas execute k+1 first and shed k.
func TestPipelineRetransmitsOverdueInOrder(t *testing.T) {
	net := newFrameNet()
	p := newSendPipeline(t, net)
	ctx := context.Background()
	var nums []uint64
	for i := 0; i < 64; i++ {
		call, err := p.Submit(ctx, []byte("op"))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		nums = append(nums, call.Request().Num)
	}
	if got := net.collect(t, len(nums)); !slices.Equal(got, nums) {
		t.Fatalf("first sends %v, want %v", got, nums)
	}

	now := time.Now()
	fresh := nums[40]
	p.mu.Lock()
	for num, pc := range p.inflight {
		if num != fresh {
			pc.sentAt = now.Add(-p.retry)
		}
	}
	p.mu.Unlock()
	p.retransmit(now)

	want := slices.DeleteFunc(slices.Clone(nums), func(n uint64) bool { return n == fresh })
	if got := net.collect(t, len(want)); !slices.Equal(got, want) {
		t.Fatalf("resent %v, want %v", got, want)
	}
}

// TestPipelineOKVoteOutlivesOverloadVote: replica 0 executes a write and
// answers OK, then sheds a late duplicate of it with an overload reply, and
// replica 1 sheds it too. Replica 0 must not count in both classes: the
// write is not failed with ErrOverloaded, and replica 1's OK completes it.
func TestPipelineOKVoteOutlivesOverloadVote(t *testing.T) {
	net := newFrameNet()
	net.quiet = true
	p := newSendPipeline(t, net)
	call, err := p.Submit(context.Background(), []byte("op"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	num := call.Request().Num
	for _, rep := range []Reply{
		{Replica: 0, Client: 3, Num: num, Result: []byte("done")},
		{Replica: 0, Client: 3, Num: num, Code: ReplyOverloaded},
		{Replica: 1, Client: 3, Num: num, Code: ReplyOverloaded},
		{Replica: 1, Client: 3, Num: num, Result: []byte("done")},
	} {
		net.inject <- transport.Envelope{From: rep.Replica, To: 3, Payload: rep.Encode()}
	}
	select {
	case <-call.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("call never completed")
	}
	res, err := call.Result()
	if errors.Is(err, ErrOverloaded) || err != nil || string(res) != "done" {
		t.Fatalf("executed write completed with (%q, %v), want its result", res, err)
	}
}

// TestPipelineAcceptsReplyBatch: the replies of one executed batch arrive
// as one frame per replica and complete every call they answer.
func TestPipelineAcceptsReplyBatch(t *testing.T) {
	net := newFrameNet()
	net.quiet = true
	p := newSendPipeline(t, net)
	var calls []*Call
	for i := 0; i < 3; i++ {
		call, err := p.Submit(context.Background(), []byte{byte('a' + i)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		calls = append(calls, call)
	}
	for _, id := range sendReplicas[:2] {
		var reps []queuedReply
		for _, c := range calls {
			reps = append(reps, queuedReply{Reply: Reply{Replica: id, Client: 3, Num: c.Request().Num, Result: c.Request().Op}})
		}
		net.inject <- transport.Envelope{From: id, To: 3, Payload: encodeReplyBatch(reps)}
	}
	for i, c := range calls {
		res, err := c.Result()
		if err != nil || string(res) != string([]byte{byte('a' + i)}) {
			t.Fatalf("call %d: (%q, %v)", i, res, err)
		}
	}
}

// TestPipelineSubmitAllocs pins a write's client path: Submit, its frame,
// and completion. The frame is encoded in place in one allocation, from a
// one-request buffer and an op buffer the pipeline reuses.
func TestPipelineSubmitAllocs(t *testing.T) {
	net := newFrameNet()
	net.quiet = true
	p := newSendPipeline(t, net)
	ctx := context.Background()
	op := []byte("op")
	got := testing.AllocsPerRun(200, func() {
		call, err := p.Submit(ctx, op)
		if err != nil {
			t.Fatal(err)
		}
		for range sendReplicas {
			<-net.sent // not await: its timeout timer would count
		}
		p.complete(call.Request().Num, nil, nil)
	})
	const want = 3 // the pipeCall holding the Call, its done channel, the frame
	if got != want {
		t.Fatalf("Submit → frame → completion: %v allocations, want %d", got, want)
	}
}

// TestPipelineSubmitKeepsFrameCopy: the call's request keeps the op's copy
// inside the request frame, so the caller may reuse op at once, and resends
// and replies see exactly the op that was submitted.
func TestPipelineSubmitKeepsFrameCopy(t *testing.T) {
	net := newFrameNet()
	p := newSendPipeline(t, net)
	op := []byte("put:value")
	call, err := p.Submit(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	net.await(t, len(sendReplicas))
	op[0] = 'P'
	net.mu.Lock()
	frame := net.frames[0].payload
	net.mu.Unlock()
	if got := call.Request().Op; string(got) != "put:value" || &got[0] != &frame[len(frame)-len(got)] {
		t.Fatalf("Request().Op = %q, not the op at the end of frame %x", got, frame)
	}
	// A frame that does not carry the op verbatim gets the call a copy.
	if got := inFrame([]byte("frame"), op); string(got) != string(op) || &got[0] == &op[0] {
		t.Fatalf("inFrame without the op = %q, want a copy of %q", got, op)
	}
}

// TestPipelineReplyBatchAllocs pins the client's receive path: a batch frame
// of replies is decoded in place, each result aliasing the frame, and each
// vote lands in its call's own vote buffer.
func TestPipelineReplyBatchAllocs(t *testing.T) {
	net := newFrameNet()
	net.quiet = true
	p := newSendPipeline(t, net)
	var reps []queuedReply
	for i := 0; i < 8; i++ {
		call, err := p.Submit(context.Background(), []byte{byte('a' + i)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		reps = append(reps, queuedReply{Reply: Reply{Replica: 0, Client: 3, Num: call.Request().Num, Result: call.Request().Op}})
	}
	env := transport.Envelope{From: 0, To: 3, Payload: encodeReplyBatch(reps)}
	got := testing.AllocsPerRun(200, func() { p.handleFrame(env) })
	// The parent copied each reply's result out of the frame.
	const parent, want = 8, 0
	if got != want {
		t.Fatalf("reply batch of %d: %v allocations, want %d (the parent's code path made %d)", len(reps), got, want, parent)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range reps {
		if pc := p.inflight[r.Num]; pc == nil || len(pc.votes) != 1 {
			t.Fatalf("request %d: votes not recorded once", r.Num)
		}
	}
}
