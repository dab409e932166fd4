package main

import (
	"testing"
	"time"
)

// fakeClock is a manual clock: Sleep is the only thing that moves it,
// apart from the costs a test charges explicitly.
type fakeClock struct {
	now    time.Time
	sleeps int
}

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d); c.sleeps++ }

type doneResult struct{}

func (doneResult) Result() ([]byte, error) { return []byte{0}, nil }

// TestOpenLoopSchedule pins the generator's contract: request i is due at
// start + i/rate whatever happened before it; a generator that fell behind
// sends at once, keeps every slot, and reports how late it ran.
func TestOpenLoopSchedule(t *testing.T) {
	const (
		rate     = 1000
		interval = time.Second / rate
		stallAt  = 20
		stall    = 10 * time.Millisecond
	)
	start := time.Unix(100, 0)
	clk := &fakeClock{now: start}
	w := workload{name: "t", openRate: rate, writeWindow: 128, keys: 8, valueSize: 16}
	var sentAt []time.Time
	put := func(string, []byte) (result, error) {
		sentAt = append(sentAt, clk.now)
		if len(sentAt) == stallAt+1 {
			clk.now = clk.now.Add(stall) // the submit call blocks, e.g. on a full window
		}
		return doneResult{}, nil
	}
	g := newGenerator(clk, w, 1, newKeyState(w.keys, w.valueSize), put, nil)
	g.stopAt(start.Add(50 * time.Millisecond))
	g.submitOpen(start)
	close(g.writes)

	if len(sentAt) != 50 {
		t.Fatalf("sent %d requests in 50 ms at %d/s, want 50: a late generator must not forgive slots", len(sentAt), rate)
	}
	i := 0
	for p := range g.writes {
		due := start.Add(time.Duration(i) * interval)
		if !p.from.Equal(due) {
			t.Fatalf("request %d timed from %v, want its due time %v", i, p.from.Sub(start), due.Sub(start))
		}
		want := due
		if behind := sentAt[stallAt].Add(stall); i > stallAt && due.Before(behind) {
			want = behind // catching up: sent the moment the stall ended
		}
		if !sentAt[i].Equal(want) {
			t.Fatalf("request %d sent at +%v, want +%v", i, sentAt[i].Sub(start), want.Sub(start))
		}
		i++
	}
	if want := stall - interval; g.lateMax != want {
		t.Fatalf("lateMax = %v, want %v", g.lateMax, want)
	}
}

// slowResult completes after a fixed service time on the fake clock.
type slowResult struct {
	clk     *fakeClock
	service time.Duration
}

func (r slowResult) Result() ([]byte, error) {
	r.clk.now = r.clk.now.Add(r.service)
	return []byte{0}, nil
}

// TestLatencyFromDueTime: a request's latency runs from when it fell due,
// so lateness shows in it, and an acked version becomes the key's floor.
func TestLatencyFromDueTime(t *testing.T) {
	start := time.Unix(100, 0)
	clk := &fakeClock{now: start.Add(7 * time.Millisecond)} // the awaiter runs 7 ms after the due time
	w := workload{name: "t", openRate: 1000, writeWindow: 4, keys: 2, valueSize: 16}
	g := newGenerator(clk, w, 1, newKeyState(w.keys, w.valueSize), nil, nil)
	g.wrec = newRecorder(start, shape{windows: 1, window: time.Second})
	g.writes <- pendingOp{from: start, key: 1, ver: 5, res: slowResult{clk, 2 * time.Millisecond}}
	close(g.writes)
	g.await(g.writes, g.wrec, false)

	lat := sortedWindows(g.wrec)[0]
	if len(lat) != 1 || lat[0] != 9*time.Millisecond {
		t.Fatalf("latency %v, want [9ms] (7 ms late + 2 ms service)", lat)
	}
	if got := g.state.acked[1].Load(); got != 5 {
		t.Fatalf("acked version %d, want 5", got)
	}
}

func TestCheckGet(t *testing.T) {
	s := newKeyState(4, 32)
	buf := make([]byte, 32)
	s.nextValue(2, buf)
	s.nextValue(2, buf) // version 2
	res := append([]byte{0}, buf...)
	if err := s.checkGet(2, 2, res); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	if err := s.checkGet(2, 3, res); err == nil {
		t.Fatal("a version older than the acked floor was accepted")
	}
	if err := s.checkGet(1, 0, res); err == nil {
		t.Fatal("another key's value was accepted")
	}
	if err := s.checkGet(2, 0, []byte{1}); err == nil {
		t.Fatal("a not-found result was accepted")
	}
}
