package smr

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unidir/internal/obs"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// The replica loop with its real goroutines, a scripted core, a channel
// transport and the fake clock of deadlines_test.go: timers fall due only
// when a test advances the clock, and a Status round trip is the barrier
// that says the loop has handled everything queued before it.

// chanNet is replica 0's transport: Recv delivers what the test puts on in.
type chanNet struct {
	in     chan transport.Envelope
	done   chan struct{}
	mu     sync.Mutex
	frames [][]byte
}

func newChanNet() *chanNet {
	return &chanNet{in: make(chan transport.Envelope), done: make(chan struct{})}
}

func (n *chanNet) Self() types.ProcessID { return 0 }

func (n *chanNet) Send(_ types.ProcessID, payload []byte) error {
	n.mu.Lock()
	n.frames = append(n.frames, payload)
	n.mu.Unlock()
	return nil
}

func (n *chanNet) Recv(ctx context.Context) (transport.Envelope, error) {
	select {
	case env := <-n.in:
		return env, nil
	case <-n.done:
		return transport.Envelope{}, context.Canceled
	case <-ctx.Done():
		return transport.Envelope{}, ctx.Err()
	}
}

// Close panics when called twice, as closing a closed channel does: the
// loop must close its transport exactly once.
func (n *chanNet) Close() error {
	close(n.done)
	return nil
}

// sentCount counts the frames sent whose first byte is b.
func (n *chanNet) sentCount(b byte) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for _, f := range n.frames {
		if len(f) > 0 && f[0] == b {
			c++
		}
	}
	return c
}

// loopCore is a scripted LoopCore[string]. It logs every callback with the
// goroutine it ran on, and counts callbacks that start once closed is set.
type loopCore struct {
	onStart func()
	onEnv   func(transport.Envelope) // nil: log it
	onTimer func(string)

	mu   sync.Mutex
	log  []string
	gids map[uint64]bool

	closed atomic.Bool
	late   atomic.Int32 // callbacks begun after closed was set
}

func (c *loopCore) record(entry string) {
	if c.closed.Load() {
		c.late.Add(1)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.log = append(c.log, entry)
	c.gids[goid()] = true
}

func (c *loopCore) Start() {
	c.record("start")
	if c.onStart != nil {
		c.onStart()
	}
}

func (c *loopCore) HandleEnvelope(env transport.Envelope) {
	if c.onEnv != nil {
		c.onEnv(env)
		return
	}
	c.record("env " + string(env.Payload))
}

func (c *loopCore) HandleTimer(ev string) {
	c.record("timer " + ev)
	if c.onTimer != nil {
		c.onTimer(ev)
	}
}

func (c *loopCore) FillStatus(st *obs.Status) {
	c.record("status")
	st.View = 3
}

func (c *loopCore) FillStaleStatus(st *obs.Status) { st.View = 7 }
func (c *loopCore) Unready() string                { return "" }

func (c *loopCore) entries() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.log)
}

// goid is the running goroutine's ID, read off its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// loopRig is a Loop over a fake core (the engine's), a loopCore (the loop's)
// and a chanNet, on the fake clock; it is not started.
type loopRig struct {
	*Loop[string]
	core  *loopCore
	net   *chanNet
	clock *fakeClock
}

func newLoopRig(t *testing.T) *loopRig {
	r := &loopRig{core: &loopCore{gids: make(map[uint64]bool)}, net: newChanNet(), clock: newFakeClock()}
	eng := NewEngine("x", &fakeCore{}, r.net, &fakeSM{}, r.clock, []types.ProcessID{1, 2}, 1, 3, 2, "",
		EngineConfig{CheckpointInterval: 2})
	r.Loop = NewLoop[string](eng, r.core)
	t.Cleanup(r.Close)
	return r
}

// sync is a Status round trip: when it returns, everything queued before it
// has been handled.
func (r *loopRig) sync(t *testing.T) {
	t.Helper()
	if st := r.Status(); st.Stale {
		t.Fatal("the loop did not answer a status request")
	}
}

func TestLoopHandlesEventsInQueueOrder(t *testing.T) {
	r := newLoopRig(t)
	gate := make(chan struct{})
	r.core.onStart = func() {
		r.After(time.Millisecond, "t1")
		<-gate // hold the run goroutine while the test fills the queue
	}
	r.Start()

	// Queued while the run goroutine is held: an envelope, a tick with the
	// core timer due, a status request, another envelope.
	r.events.Push(loopEvent{env: transport.Envelope{Payload: []byte("a")}})
	waitFor(t, "Start to arm t1", func() bool { return r.clock.armedTimers() == 1 })
	r.clock.Advance(time.Millisecond)
	status := make(chan obs.Status, 1)
	r.events.Push(loopEvent{status: status})
	r.events.Push(loopEvent{env: transport.Envelope{Payload: []byte("b")}})
	close(gate)

	if st := <-status; st.View != 3 || st.Protocol != "x" || !st.Ready || st.Stale {
		t.Fatalf("status %+v: want a fresh snapshot with the core's and the engine's fields", st)
	}
	r.net.in <- transport.Envelope{Payload: []byte("c")} // through the receive goroutine
	waitFor(t, "the received envelope", func() bool { return len(r.core.entries()) == 6 })

	want := []string{"start", "env a", "timer t1", "status", "env b", "env c"}
	if got := r.core.entries(); !slices.Equal(got, want) {
		t.Fatalf("handled %q, want %q", got, want)
	}
	if len(r.core.gids) != 1 {
		t.Fatalf("callbacks ran on %d goroutines, want 1", len(r.core.gids))
	}
}

func TestLoopOneRuntimeTimer(t *testing.T) {
	r := newLoopRig(t)
	armedAtMostOne := func(when string) {
		t.Helper()
		if n := r.clock.armedTimers(); n > 1 {
			t.Fatalf("%s: %d runtime timers armed, want at most 1", when, n)
		}
	}
	r.core.onStart = func() {
		r.After(100*time.Millisecond, "after")
		r.Watch(300*time.Millisecond, "watch")
		r.eng.RequestState(2) // the engine's timer: a fetch retry every stateFetchRetry
	}
	r.Start()
	r.sync(t)
	if !r.Armed() || r.clock.armedTimers() != 1 {
		t.Fatalf("armed %v with %d runtime timers, want one for three timeouts", r.Armed(), r.clock.armedTimers())
	}
	if r.net.sentCount('F') != 2 {
		t.Fatalf("%d state fetches sent, want one to each peer", r.net.sentCount('F'))
	}

	r.clock.Advance(100 * time.Millisecond)
	r.sync(t)
	armedAtMostOne("after the core's After fell due")
	r.clock.Advance(200 * time.Millisecond)
	r.sync(t)
	armedAtMostOne("after the core's Watch fell due")
	r.clock.Advance(stateFetchRetry - 300*time.Millisecond)
	r.sync(t)
	armedAtMostOne("after the engine's timer fell due")

	want := []string{"start", "status", "timer after", "status", "timer watch", "status", "status"}
	if got := r.core.entries(); !slices.Equal(got, want) {
		t.Fatalf("handled %q, want %q", got, want)
	}
	if r.net.sentCount('F') != 4 {
		t.Fatalf("%d state fetches sent, want the engine's retry to re-send both", r.net.sentCount('F'))
	}
	if !r.Armed() {
		t.Fatal("the fetch retry is not re-armed")
	}
	r.Close()
	if r.Armed() || r.clock.armedTimers() != 0 {
		t.Fatal("a runtime timer is armed after Close")
	}
}

func TestLoopNothingRunsAfterClose(t *testing.T) {
	var ticks atomic.Int32
	r := newLoopRig(t)
	// A core that keeps the loop busy: every timer re-arms, and envelopes
	// and clock ticks keep arriving until the test stops them. One envelope
	// handler, on request, holds the run goroutine until released.
	var hold atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	r.core.onEnv = func(transport.Envelope) {
		r.core.record("env")
		if hold.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}
	r.core.onStart = func() { r.After(time.Millisecond, "tick") }
	r.core.onTimer = func(string) {
		ticks.Add(1)
		r.After(time.Millisecond, "tick")
	}
	r.Start()

	stop := make(chan struct{})
	var feeders sync.WaitGroup
	feeders.Add(2)
	go func() {
		defer feeders.Done()
		for {
			select {
			case r.net.in <- transport.Envelope{Payload: []byte("m")}:
			case <-stop:
				return
			}
		}
	}()
	go func() {
		defer feeders.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.clock.Advance(time.Millisecond)
				runtime.Gosched()
			}
		}
	}()
	waitFor(t, "a timer to fall due", func() bool { return ticks.Load() > 0 })
	hold.Store(true)
	<-entered

	// Close twice, concurrently, while a handler runs: neither returns
	// before the handler does, and nothing runs after.
	closed := make(chan struct{}, 2)
	for range 2 {
		go func() {
			r.Close()
			r.core.closed.Store(true)
			closed <- struct{}{}
		}()
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for range 2 {
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return once the handler did")
		}
	}
	time.Sleep(20 * time.Millisecond) // the feeders keep pushing at a closed loop
	close(stop)
	feeders.Wait()

	if n := r.core.late.Load(); n != 0 {
		t.Fatalf("%d callbacks ran after Close returned", n)
	}
	if r.Armed() || r.clock.armedTimers() != 0 {
		t.Fatal("a runtime timer is armed after Close")
	}
}

func TestLoopStatusStale(t *testing.T) {
	// Wedged: the run goroutine is stuck in a handler, so Status waits out
	// statusTimeout on the loop's clock and falls back.
	r := newLoopRig(t)
	gate, wedged := make(chan struct{}), make(chan struct{})
	r.core.onEnv = func(transport.Envelope) { close(wedged); <-gate }
	r.Start()
	r.net.in <- transport.Envelope{Payload: []byte("wedge")}
	// The receive goroutine queues the envelope after taking it off the
	// channel; a status request queued first would be answered at once.
	<-wedged
	stale := make(chan obs.Status, 1)
	go func() { stale <- r.Status() }()
	waitFor(t, "Status to arm its timeout", func() bool { return r.clock.armedTimers() > 0 })
	r.clock.Advance(statusTimeout)
	select {
	case st := <-stale:
		if !st.Stale || st.View != 7 || st.Protocol != "x" || !st.Ready {
			t.Fatalf("wedged status %+v: want the stale snapshot", st)
		}
	case <-time.After(statusTimeout / 2):
		t.Fatal("Status did not fall back when its timeout passed on the loop's clock")
	}
	close(gate)
	r.Close()

	// Closed: the request cannot be queued, so the stale snapshot comes back
	// at once, with no clock advance.
	done := make(chan obs.Status, 1)
	go func() { done <- r.Status() }()
	select {
	case st := <-done:
		if !st.Stale || st.View != 7 || st.Replica != 0 || st.ExecCount != 0 {
			t.Fatalf("status after Close %+v: want the stale snapshot", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Status after Close did not return at once")
	}
}

// TestLoopEnvelopeAllocs guards the receive-to-handler path: one envelope
// costs at most the queue's slice for its burst. (The per-protocol loops
// this replaced also heap-copied every envelope: two allocations.)
func TestLoopEnvelopeAllocs(t *testing.T) {
	r := newLoopRig(t)
	handled := make(chan struct{})
	r.core.onEnv = func(transport.Envelope) { handled <- struct{}{} }
	r.Start()
	env := transport.Envelope{From: 1, Payload: []byte("m")}
	allocs := testing.AllocsPerRun(1000, func() {
		r.net.in <- env
		<-handled
	})
	if allocs > 1 {
		t.Fatalf("%.1f allocations per envelope, want at most 1", allocs)
	}
}
