package smr

// The replica loop: what drives an ordering core and its engine, the same for
// both protocols (DESIGN.md §5). One receive goroutine queues every envelope
// the transport delivers; one run goroutine pops the whole queue per wakeup,
// handles envelopes, due timeouts and status requests in queue order, and
// flushes the read replies of the burst. Every timeout — the core's, and the
// engine's pacing recheck and state-fetch retry — is an entry
// on one Deadlines, so a replica owns exactly one runtime timer. The loop
// reads time only from the engine's Clock.

import (
	"context"
	"sync"
	"time"

	"unidir/internal/obs"
	"unidir/internal/syncx"
	"unidir/internal/transport"
)

// LoopCore is what a Loop needs from an ordering core, T being the core's
// timeout type. FillStaleStatus and Unready may run on any goroutine; the
// rest run on the run goroutine.
type LoopCore[T any] interface {
	// Start runs once, before the first event.
	Start()
	// HandleEnvelope decodes and dispatches one received message.
	HandleEnvelope(env transport.Envelope)
	// HandleTimer handles one of the core's timeouts that fell due.
	HandleTimer(ev T)
	// FillStatus sets the core's fields of a status snapshot, View among
	// them (the engine's lease report reads it).
	FillStatus(st *obs.Status)
	// FillStaleStatus sets the fields the core can read off its run
	// goroutine, for the stale snapshot.
	FillStaleStatus(st *obs.Status)
	// Unready names why the core is not serving normally; "" when it is.
	Unready() string
}

// statusTimeout bounds how long Status waits for the run goroutine. A
// healthy replica answers in microseconds; a wedged one must not wedge its
// monitors too, so past the deadline Status degrades to a stale snapshot.
const statusTimeout = 2 * time.Second

// Loop is one replica's event loop and timer plane. Create with NewLoop,
// start with Start, stop with Close.
type Loop[T any] struct {
	eng  *Engine
	core LoopCore[T]

	events *syncx.Queue[loopEvent]
	timers *Deadlines[loopTimer[T]]
	due    func(loopTimer[T]) // fire, bound once so a tick allocates nothing

	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

type loopEvent struct {
	env    transport.Envelope
	tick   bool            // a queued deadline has passed: drain the timers
	status chan obs.Status // a status request, answered on the run goroutine
}

// loopTimer is one entry of the timer plane: a core timeout, or the engine's.
type loopTimer[T any] struct {
	ev  T
	eng bool
}

// NewLoop builds the loop that drives eng and core; it becomes eng's timer.
// Nothing runs until Start.
func NewLoop[T any](eng *Engine, core LoopCore[T]) *Loop[T] {
	l := &Loop[T]{eng: eng, core: core, events: syncx.NewQueue[loopEvent]()}
	l.timers = NewDeadlines[loopTimer[T]](eng.clock, func() { l.events.Push(loopEvent{tick: true}) })
	l.due = l.fire
	eng.armTimer = func(d time.Duration) { l.timers.After(d, loopTimer[T]{eng: true}) }
	return l
}

// Start launches the receive and run goroutines.
func (l *Loop[T]) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	l.cancel = cancel
	l.wg.Add(2)
	go l.receive(ctx)
	go l.run(ctx)
}

// Close stops both goroutines and closes the transport, then stops the timer
// plane: once Close returns, no callback runs and no timer is armed. Closing
// twice is safe.
func (l *Loop[T]) Close() {
	l.closeOnce.Do(func() {
		l.cancel()
		l.events.Close()
		_ = l.eng.tr.Close()
		l.wg.Wait()
		l.timers.Stop() // the run goroutine, its only other user, has exited
	})
}

func (l *Loop[T]) receive(ctx context.Context) {
	defer l.wg.Done()
	for {
		env, err := l.eng.tr.Recv(ctx)
		if err != nil {
			return
		}
		l.events.Push(loopEvent{env: env})
	}
}

func (l *Loop[T]) run(ctx context.Context) {
	defer l.wg.Done()
	l.core.Start()
	for {
		// Draining the whole backlog per wakeup lets read replies produced
		// while handling one burst coalesce into one frame per client
		// (FlushReads) instead of one frame per read.
		evs, err := l.events.PopAll(ctx)
		if err != nil {
			return
		}
		for i := range evs {
			switch ev := &evs[i]; {
			case ev.tick:
				l.timers.Due(l.due)
			case ev.status != nil:
				ev.status <- l.buildStatus()
			default:
				l.core.HandleEnvelope(ev.env)
			}
		}
		l.eng.FlushReads()
	}
}

func (l *Loop[T]) fire(t loopTimer[T]) {
	if t.eng {
		l.eng.timerFired()
		return
	}
	l.core.HandleTimer(t.ev)
}

// The core's timer plane; run goroutine only, like the Deadlines behind it.

// Now reads the loop's clock.
func (l *Loop[T]) Now() time.Time { return l.eng.clock.Now() }

// After queues the core timeout ev to fall due d from now.
func (l *Loop[T]) After(d time.Duration, ev T) { l.timers.After(d, loopTimer[T]{ev: ev}) }

// Watch queues ev on the one-duration FIFO lane (Deadlines.Watch).
func (l *Loop[T]) Watch(d time.Duration, ev T) { l.timers.Watch(d, loopTimer[T]{ev: ev}) }

// Prune drops the head of the Watch lane while live reports it dead.
func (l *Loop[T]) Prune(live func(T) bool) {
	l.timers.Prune(func(t loopTimer[T]) bool { return live(t.ev) })
}

// Watched returns the number of entries on the Watch lane.
func (l *Loop[T]) Watched() int { return l.timers.Watched() }

// OldestWatch returns the deadline at the head of the Watch lane.
func (l *Loop[T]) OldestWatch() (time.Time, bool) { return l.timers.OldestWatch() }

// Armed reports whether the one runtime timer is set. Safe from any
// goroutine.
func (l *Loop[T]) Armed() bool { return l.timers.Armed() }

// Status implements obs.StatusProvider. The request rides the event queue
// and the snapshot is assembled on the run goroutine, so every field belongs
// to one consistent cut of protocol state: the view, checkpoint and
// watermarks can never be torn across a view change. When the replica is
// closed, or does not answer within statusTimeout, the snapshot is Stale:
// built from what is readable off the run goroutine, counters zero (the
// watch auditor's monotonicity rules skip stale samples).
func (l *Loop[T]) Status() obs.Status {
	ch := make(chan obs.Status, 1)
	if l.events.Push(loopEvent{status: ch}) {
		expired := make(chan struct{})
		t := l.eng.clock.AfterFunc(statusTimeout, func() { close(expired) })
		select {
		case st := <-ch:
			t.Stop()
			return st
		case <-expired:
		}
	}
	st := obs.Status{Protocol: l.eng.name, Replica: int(l.eng.tr.Self()), Stale: true}
	st.Ready, st.ReadyReason = l.ReadyReason()
	l.core.FillStaleStatus(&st)
	return st
}

func (l *Loop[T]) buildStatus() obs.Status {
	var st obs.Status
	l.core.FillStatus(&st)
	l.eng.FillStatus(&st)
	st.Ready, st.ReadyReason = l.ReadyReason()
	return st
}

// Ready reports whether the replica is serving normally. Safe from any
// goroutine; it backs the /readyz endpoint.
func (l *Loop[T]) Ready() bool {
	ready, _ := l.ReadyReason()
	return ready
}

// ReadyReason is Ready with the name of the failing probe: the core's (a
// view change) first, then a state transfer. Safe from any goroutine.
func (l *Loop[T]) ReadyReason() (bool, string) {
	if why := l.core.Unready(); why != "" {
		return false, why
	}
	if l.eng.Fetching() {
		return false, "state transfer in progress"
	}
	return true, ""
}
