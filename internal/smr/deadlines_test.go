package smr

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced Clock. Advance runs expired timers on the
// caller's goroutine, so a test is single-threaded and exact; the lock lets
// a replica loop's goroutines read it too (loop_test.go).
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer // every timer ever created
}

type fakeTimer struct {
	c     *fakeClock
	at    time.Time
	f     func()
	armed bool
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) ClockTimer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{c: c, at: c.now.Add(d), f: f, armed: true}
	c.timers = append(c.timers, t)
	return t
}

func (t *fakeTimer) Reset(d time.Duration) bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.armed
	t.at, t.armed = t.c.now.Add(d), true
	return was
}

func (t *fakeTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.armed
	t.armed = false
	return was
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var fire []func()
	for _, t := range c.timers {
		if t.armed && !t.at.After(c.now) {
			t.armed = false
			fire = append(fire, t.f)
		}
	}
	c.mu.Unlock()
	for _, f := range fire {
		f()
	}
}

func (c *fakeClock) armedTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.timers {
		if t.armed {
			n++
		}
	}
	return n
}

// plane is a Deadlines[string] on a fake clock whose wake only counts: the
// test plays the event loop and calls due itself.
type plane struct {
	*Deadlines[string]
	clock *fakeClock
	wakes int
}

func newPlane() *plane {
	p := &plane{clock: newFakeClock()}
	p.Deadlines = NewDeadlines[string](p.clock, func() { p.wakes++ })
	return p
}

func (p *plane) due() []string {
	var got []string
	p.Due(func(ev string) { got = append(got, ev) })
	return got
}

const ms = time.Millisecond

func TestDeadlinesOrder(t *testing.T) {
	p := newPlane()
	p.After(30*ms, "a30")
	p.After(10*ms, "b10")
	p.Watch(20*ms, "w20")
	p.After(20*ms, "c20") // same deadline as w20, queued later
	p.After(10*ms, "d10") // same deadline as b10, queued later
	if got := p.due(); got != nil {
		t.Fatalf("due before any deadline: %v", got)
	}
	p.clock.Advance(30 * ms)
	want := []string{"b10", "d10", "w20", "c20", "a30"}
	if got := p.due(); !reflect.DeepEqual(got, want) {
		t.Fatalf("due order %v, want %v (deadline order, insertion order among equals)", got, want)
	}
}

func TestDeadlinesOneTimerMovedEarlier(t *testing.T) {
	p := newPlane()
	p.After(100*ms, "late")
	p.After(10*ms, "early") // must pull the one timer in, not add a second
	p.clock.Advance(9 * ms)
	if p.wakes != 0 {
		t.Fatalf("woken %d times before the earliest deadline", p.wakes)
	}
	p.clock.Advance(1 * ms)
	if p.wakes != 1 {
		t.Fatalf("wakes = %d at the earliest deadline, want 1", p.wakes)
	}
	if got := p.due(); !reflect.DeepEqual(got, []string{"early"}) {
		t.Fatalf("due = %v, want [early]", got)
	}
	p.clock.Advance(90 * ms)
	if p.wakes != 2 {
		t.Fatalf("wakes = %d after the second deadline, want 2 (Due must re-arm)", p.wakes)
	}
	if got := p.due(); !reflect.DeepEqual(got, []string{"late"}) {
		t.Fatalf("due = %v, want [late]", got)
	}
	if p.Armed() || p.clock.armedTimers() != 0 {
		t.Fatalf("timer still armed with nothing queued")
	}
	if n := len(p.clock.timers); n != 1 {
		t.Fatalf("%d runtime timers created, want exactly 1", n)
	}
}

func TestDeadlinesDrainAllDueInOneTick(t *testing.T) {
	p := newPlane()
	for _, ev := range []string{"w1", "w2", "w3"} {
		p.Watch(10*ms, ev)
		p.clock.Advance(1 * ms)
	}
	p.After(5*ms, "a")
	p.After(50*ms, "later")
	p.clock.Advance(20 * ms)
	if p.wakes != 1 {
		t.Fatalf("wakes = %d, want 1 for the whole backlog", p.wakes)
	}
	var got []string
	p.Due(func(ev string) {
		got = append(got, ev)
		if ev == "a" {
			p.After(1*ms, "requeued") // handlers may queue; not due yet
		}
	})
	if want := []string{"a", "w1", "w2", "w3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("one Due handed out %v, want %v", got, want)
	}
	p.clock.Advance(1 * ms)
	if got := p.due(); p.wakes != 2 || !reflect.DeepEqual(got, []string{"requeued"}) {
		t.Fatalf("entry queued from a handler: wakes=%d due=%v, want [requeued]", p.wakes, got)
	}
}

func TestDeadlinesPruneHead(t *testing.T) {
	p := newPlane()
	dead := map[string]bool{}
	live := func(ev string) bool { return !dead[ev] }
	start := p.clock.Now()
	for _, ev := range []string{"r1", "r2", "r3", "r4", "r5"} {
		p.Watch(100*ms, ev)
		p.clock.Advance(1 * ms)
	}
	dead["r1"], dead["r2"], dead["r4"] = true, true, true
	p.Prune(live)
	// r4 died behind a live head: it stays until the head reaches it.
	if got := p.Watched(); got != 3 {
		t.Fatalf("Watched = %d after pruning a dead head of 2, want 3", got)
	}
	if at, ok := p.OldestWatch(); !ok || !at.Equal(start.Add(102*ms)) {
		t.Fatalf("oldest watch deadline %v, want r3's (%v)", at, start.Add(102*ms))
	}
	dead["r3"] = true
	p.Prune(live)
	if got := p.Watched(); got != 1 {
		t.Fatalf("Watched = %d once the head moved past r3 and r4, want 1", got)
	}
	// The timer still points at r1's deadline; that fire finds nothing due
	// and re-arms for r5 — never late, at worst one idle wakeup.
	p.clock.Advance(95 * ms) // start+100ms: r1's deadline
	if got := p.due(); p.wakes != 1 || got != nil {
		t.Fatalf("at a pruned deadline: wakes=%d due=%v, want one idle wakeup", p.wakes, got)
	}
	p.clock.Advance(4 * ms) // start+104ms: r5's deadline
	if got := p.due(); p.wakes != 2 || !reflect.DeepEqual(got, []string{"r5"}) {
		t.Fatalf("at r5's deadline: wakes=%d due=%v, want [r5]", p.wakes, got)
	}
	dead["r5"] = true
	p.Prune(live)
	if _, ok := p.OldestWatch(); ok || p.Watched() != 0 {
		t.Fatalf("lane not empty after everything died")
	}
}

func TestDeadlinesWatchNeverFiresEarly(t *testing.T) {
	p := newPlane()
	p.Watch(100*ms, "long")
	p.Watch(10*ms, "short") // breaks the one-duration rule: held to the tail's deadline
	p.clock.Advance(99 * ms)
	if got := p.due(); got != nil {
		t.Fatalf("due %v before the lane's head deadline", got)
	}
	p.clock.Advance(1 * ms)
	if got := p.due(); !reflect.DeepEqual(got, []string{"long", "short"}) {
		t.Fatalf("due = %v, want [long short]", got)
	}
}

func TestDeadlinesStop(t *testing.T) {
	p := newPlane()
	p.After(10*ms, "a")
	p.Watch(10*ms, "w")
	if !p.Armed() {
		t.Fatal("not armed with entries queued")
	}
	p.Stop()
	if p.Armed() || p.clock.armedTimers() != 0 {
		t.Fatal("armed after Stop")
	}
	p.clock.Advance(20 * ms)
	p.clock.timers[0].f() // a fire that was already in flight when Stop ran
	if p.wakes != 0 {
		t.Fatalf("woken %d times after Stop", p.wakes)
	}
	if got := p.due(); got != nil || p.Watched() != 0 {
		t.Fatalf("entries survived Stop: due=%v watched=%d", got, p.Watched())
	}
}
