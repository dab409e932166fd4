package rounds

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"unidir/internal/core"
	"unidir/internal/sig"
	"unidir/internal/trusted/swmr"
	"unidir/internal/types"
)

// The schedule tests step the round cores on one goroutine. Every correct
// process runs rounds 1..scheduleRounds — Send, then WaitEnd, then the next
// round once its End came — and closes. A seeded rng picks every next event:
// a process's next call, the writes of its last Send (then Sent at that
// instant: in a timed world the clock may have moved since the Send), one
// payload out of the in-flight bag, one pending object read, a background
// scan, or the clock moving on, until nothing is left to do. core.UniChecker then judges the execution among the correct
// processes. A failure names its seed, which replays it.

const (
	scheduleSeeds  = 200
	scheduleRounds = 3
)

// envelope is one payload in flight; a timed world delivers it at due.
type envelope struct {
	from, to types.ProcessID
	payload  []byte
	due      time.Time
}

// proc is one correct process of a world.
type proc struct {
	core    Core
	round   types.Round // the round in progress
	sent    bool        // Send(round) made
	writes  *Step       // the last Send's writes, not yet carried out
	waiting bool        // WaitEnd(round) made, its End not yet seen
	closed  bool
	wake    time.Time         // when to ask WaitEnd again
	reads   []types.ProcessID // object reads still to make, in order
	cursor  []int             // entries read so far, per object
	polls   int               // background scans still to start
}

// world is n processes (nil for a Byzantine one), what is in flight between
// them, their objects and the checker.
type world struct {
	m       types.Membership
	rng     *rand.Rand
	procs   []*proc
	bag     []envelope
	store   *swmr.Store // memory worlds
	checker *core.UniChecker
	now     time.Time
	delta   time.Duration // timed worlds: the bound on every delay
	polls   int           // background scans per process (memory worlds)
}

func newWorld(t *testing.T, m types.Membership, seed int64) *world {
	t.Helper()
	store, err := swmr.NewStore(m)
	if err != nil {
		t.Fatal(err)
	}
	return &world{m: m, rng: rand.New(rand.NewSource(seed)), procs: make([]*proc, m.N), store: store,
		checker: core.NewUniChecker(), now: time.Unix(0, 0)}
}

// add makes p a correct process running c.
func (w *world) add(p types.ProcessID, c Core) {
	w.procs[p] = &proc{core: c, cursor: make([]int, w.m.N), polls: w.polls}
}

// inject puts a Byzantine payload in flight.
func (w *world) inject(from, to types.ProcessID, payload []byte) {
	w.bag = append(w.bag, envelope{from: from, to: to, payload: payload, due: w.now.Add(w.delta)})
}

// apply carries out one step p took.
func (w *world) apply(p types.ProcessID, step *Step) {
	pr := w.procs[p]
	for _, payload := range step.Send {
		for _, q := range w.m.Others(p) {
			delay := time.Duration(0)
			if w.delta > 0 {
				delay = time.Duration(w.rng.Int63n(int64(w.delta) + 1))
			}
			w.bag = append(w.bag, envelope{from: p, to: q, payload: payload, due: w.now.Add(delay)})
		}
	}
	for _, entry := range step.Append {
		if err := w.store.Append(p, p, entry); err != nil {
			panic(err)
		}
	}
	for _, e := range step.Events {
		e.Report(p, w.checker)
	}
	for _, e := range step.Ended {
		if pr.waiting && e.Round == pr.round {
			pr.waiting, pr.sent, pr.wake = false, false, time.Time{}
		}
	}
	if step.Scan {
		pr.reads = append(pr.reads, w.m.All()...)
	}
	if !step.Wake.IsZero() {
		pr.wake = step.Wake
	}
}

// call makes p's next call: Send, WaitEnd, or Close after the last round.
func (w *world) call(t *testing.T, p types.ProcessID) {
	pr := w.procs[p]
	var step *Step
	var err error
	switch {
	case !pr.sent && pr.round == scheduleRounds:
		pr.closed = true
		step = pr.core.Close()
	case !pr.sent:
		pr.round++
		pr.sent = true
		step, err = pr.core.Send(pr.round, []byte(fmt.Sprintf("p%d-r%d", p, pr.round)))
		if err == nil {
			// Other inputs reuse the step: keep the writes for later.
			pr.writes = &Step{Send: slices.Clone(step.Send), Append: slices.Clone(step.Append)}
			return
		}
	default:
		pr.waiting = true
		step, err = pr.core.WaitEnd(pr.round, w.now)
	}
	if err != nil {
		t.Fatalf("p%d round %d: %v", p, pr.round, err)
	}
	w.apply(p, step)
}

// overdue reports whether some payload has arrived that must be delivered
// before the clock moves or a timer fires: one arriving exactly at a round's
// end is in time.
func (w *world) overdue() bool {
	for _, e := range w.bag {
		if w.delta > 0 && !w.now.Before(e.due) {
			return true
		}
	}
	return false
}

// run steps the world until nothing is left to do, and checks that every
// correct process closed.
func (w *world) run(t *testing.T, seed int64) {
	t.Helper()
	for {
		var acts []func()
		overdue := w.overdue()
		next := time.Time{} // the earliest due or wake after now
		later := func(at time.Time) {
			if at.After(w.now) && (next.IsZero() || at.Before(next)) {
				next = at
			}
		}
		for id, pr := range w.procs {
			p := types.ProcessID(id)
			if pr == nil || pr.closed {
				continue
			}
			if pr.writes != nil {
				acts = append(acts, func() {
					w.apply(p, pr.writes)
					pr.writes = nil
					w.apply(p, pr.core.Sent(w.now))
				})
			} else if !pr.waiting {
				acts = append(acts, func() { w.call(t, p) })
			}
			if pr.waiting && !pr.wake.IsZero() {
				later(pr.wake)
				if !w.now.Before(pr.wake) && !overdue {
					acts = append(acts, func() {
						step, err := pr.core.WaitEnd(pr.round, w.now)
						if err != nil {
							t.Fatalf("p%d: WaitEnd: %v", p, err)
						}
						w.apply(p, step)
					})
				}
			}
			if len(pr.reads) > 0 {
				acts = append(acts, func() {
					owner := pr.reads[0]
					pr.reads = pr.reads[1:]
					entries, err := w.store.ReadLog(p, owner, pr.cursor[owner])
					if err != nil {
						t.Fatalf("p%d: ReadLog: %v", p, err)
					}
					pr.cursor[owner] += len(entries)
					w.apply(p, pr.core.Scanned(owner, entries))
				})
			} else if pr.polls > 0 {
				acts = append(acts, func() {
					pr.polls--
					pr.reads = append(pr.reads, w.m.All()...)
				})
			}
		}
		for i := range w.bag {
			if w.delta > 0 && w.now.Before(w.bag[i].due) {
				later(w.bag[i].due) // still on its way
				continue
			}
			acts = append(acts, func() {
				e := w.bag[i]
				w.bag[i] = w.bag[len(w.bag)-1]
				w.bag = w.bag[:len(w.bag)-1]
				if pr := w.procs[e.to]; pr != nil && !pr.closed {
					w.apply(e.to, pr.core.Handle(e.from, e.payload))
				}
			})
		}
		if w.delta > 0 && !overdue && ((len(acts) == 0 && !next.IsZero()) || (len(acts) > 0 && w.rng.Intn(4) == 0)) {
			step := w.now.Add(time.Duration(1 + w.rng.Int63n(int64(w.delta))))
			if next.IsZero() || step.Before(next) {
				next = step
			}
			acts = append(acts, func() { w.now = next })
		}
		if len(acts) == 0 {
			break
		}
		acts[w.rng.Intn(len(acts))]()
	}
	for id, pr := range w.procs {
		if pr != nil && !pr.closed {
			t.Fatalf("seed %d: p%d stuck in round %d", seed, id, pr.round)
		}
	}
}

// violations returns the checker's verdict over the correct processes.
func (w *world) violations() []core.Violation {
	var correct []types.ProcessID
	for id, pr := range w.procs {
		if pr != nil {
			correct = append(correct, types.ProcessID(id))
		}
	}
	return w.checker.Violations(correct)
}

func scheduleMembership(t *testing.T, n, f int) types.Membership {
	t.Helper()
	m, err := types.NewMembership(n, f)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	return m
}

// noViolation runs build's world for every seed and fails on the first
// violation.
func noViolation(t *testing.T, build func(seed int64) *world) {
	t.Helper()
	for seed := int64(1); seed <= scheduleSeeds; seed++ {
		w := build(seed)
		w.run(t, seed)
		if v := w.violations(); len(v) != 0 {
			t.Fatalf("seed %d: %v", seed, v)
		}
	}
}

func TestScheduleSWMR(t *testing.T) {
	for _, nf := range [][2]int{{3, 1}, {5, 2}} {
		t.Run(fmt.Sprintf("n=%d,f=%d", nf[0], nf[1]), func(t *testing.T) {
			m := scheduleMembership(t, nf[0], nf[1])
			noViolation(t, func(seed int64) *world {
				w := newWorld(t, m, seed)
				w.polls = 2 * scheduleRounds
				for _, p := range m.All() {
					w.add(p, newSWMRCore(m, p))
				}
				return w
			})
		})
	}
}

func TestScheduleRBF1(t *testing.T) {
	// Process 0 is Byzantine: it equivocates, and sends each process a
	// bundle carrying its own value only, which must not count.
	m := scheduleMembership(t, 3, 1)
	noViolation(t, func(seed int64) *world {
		rings, err := sig.NewKeyrings(m, sig.HMAC, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		w := newWorld(t, m, seed)
		for _, p := range m.Others(0) {
			c, err := newRBF1Core(m, rings[p])
			if err != nil {
				t.Fatal(err)
			}
			w.add(p, c)
		}
		for r := types.Round(1); r <= scheduleRounds; r++ {
			for _, to := range m.Others(0) {
				data := []byte(fmt.Sprintf("byz-r%d-to-p%d", r, to))
				signature := rings[0].Sign(p1Bytes(r, data))
				w.inject(0, to, encodePhase1(r, data, signature))
				w.inject(0, to, encodeBundle(r, []bundleEntry{{0, data, signature}}))
			}
		}
		w.inject(0, 1, []byte{rbPhase2, 1, 2, 3})
		return w
	})
}

func TestScheduleLockstep(t *testing.T) {
	m := scheduleMembership(t, 3, 1)
	noViolation(t, func(seed int64) *world {
		w := newWorld(t, m, seed)
		for _, p := range m.All() {
			w.add(p, newLockstepCore(m, p, m.All()))
		}
		return w
	})
}

func TestScheduleDeltaSync(t *testing.T) {
	// Virtual time; every delay is at most wait, counted from the write,
	// which may come after the Send.
	const wait = 10 * time.Millisecond
	m := scheduleMembership(t, 4, 1)
	noViolation(t, func(seed int64) *world {
		w := newWorld(t, m, seed)
		w.delta = wait
		for _, p := range m.All() {
			w.add(p, newDeltaSyncCore(m, p, wait))
		}
		return w
	})
}

func TestScheduleAsyncFindsViolation(t *testing.T) {
	// The zero-directional baseline: some schedule ends two processes'
	// round on n-f = 2 messages without each other's.
	m := scheduleMembership(t, 3, 1)
	for seed := int64(1); seed <= scheduleSeeds; seed++ {
		w := newWorld(t, m, seed)
		for _, p := range m.All() {
			w.add(p, newAsyncCore(m, p))
		}
		w.run(t, seed)
		if v := w.violations(); len(v) != 0 {
			t.Logf("seed %d: %v", seed, v)
			return
		}
	}
	t.Fatalf("no violation in %d seeds", scheduleSeeds)
}
