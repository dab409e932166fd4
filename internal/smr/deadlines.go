package smr

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the time source of a Deadlines: the system clock in a running
// replica, a hand-advanced fake in tests (and, later, the deterministic
// simulator's scheduler).
type Clock interface {
	Now() time.Time
	// AfterFunc arms a one-shot timer that calls f on its own goroutine
	// once d has passed.
	AfterFunc(d time.Duration, f func()) ClockTimer
}

// ClockTimer is the part of *time.Timer a Deadlines uses.
type ClockTimer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// SystemClock is the wall clock.
var SystemClock Clock = systemClock{}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }
func (systemClock) AfterFunc(d time.Duration, f func()) ClockTimer {
	return time.AfterFunc(d, f)
}

// Deadlines is a replica's timer plane: every timeout the protocol arms is an
// entry in a deadline-ordered queue that the replica's own event loop drains,
// and the whole queue is backed by exactly one runtime timer. The timer's
// only job is to call wake when the earliest deadline passes; wake makes the
// event loop call Due, which hands the expired entries to the protocol on
// the loop's goroutine. So arming a timeout costs a queue insert — no runtime
// timer, no closure, no goroutine per fire — and what the runtime sees is
// O(1) per replica however many timeouts are outstanding.
//
// Two lanes share the timer. After queues an entry at an arbitrary deadline
// (a heap). Watch is for timeouts that all use one constant duration, so
// their deadlines arrive already sorted: a FIFO, whose head Prune trims of
// entries the caller no longer cares about. Pruning only the head is enough
// exactly because of that order: the head is the oldest entry, nothing
// behind it can fall due before it does, so the runtime timer never needs to
// look past it, and an entry that died in the middle is dropped when the
// head reaches it — at the latest when it falls due.
//
// All methods except Armed must be called from one goroutine (the event
// loop); Stop must not overlap any of them. wake runs on the runtime timer's
// goroutine and must not block.
type Deadlines[T any] struct {
	clock Clock
	wake  func()

	timed []deadline[T] // After lane: min-heap on (at, seq)
	watch []deadline[T] // Watch lane: watch[head:] in deadline order
	head  int
	seq   uint64 // insertion stamp: equal deadlines fire in insertion order

	timer   ClockTimer  // the one runtime timer; nil until something is queued
	armedAt time.Time   // what timer is set for, while armed
	armed   atomic.Bool // timer is set, and Due has not yet answered its fire

	mu      sync.Mutex // orders fire against Stop; the event loop never takes it
	stopped bool
}

type deadline[T any] struct {
	at  time.Time
	seq uint64
	ev  T
}

func (a deadline[T]) before(b deadline[T]) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

// NewDeadlines returns an empty timer plane on clock. wake is called (off
// the event loop) whenever a queued deadline has passed; the loop answers by
// calling Due.
func NewDeadlines[T any](clock Clock, wake func()) *Deadlines[T] {
	return &Deadlines[T]{clock: clock, wake: wake}
}

// After queues ev to fall due d from now.
func (q *Deadlines[T]) After(d time.Duration, ev T) {
	q.seq++
	q.timed = append(q.timed, deadline[T]{q.clock.Now().Add(d), q.seq, ev})
	for i := len(q.timed) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.timed[i].before(q.timed[parent]) {
			break
		}
		q.timed[i], q.timed[parent] = q.timed[parent], q.timed[i]
		i = parent
	}
	q.arm()
}

// Watch queues ev on the FIFO lane, to fall due d from now. Every Watch on
// one Deadlines is meant to pass the same d; a deadline that would sort
// before the lane's tail (a shorter d) is held to the tail's instead, which
// keeps the lane ordered and never fires an entry early.
func (q *Deadlines[T]) Watch(d time.Duration, ev T) {
	at := q.clock.Now().Add(d)
	if n := len(q.watch); n > q.head && at.Before(q.watch[n-1].at) {
		at = q.watch[n-1].at
	}
	q.seq++
	q.watch = append(q.watch, deadline[T]{at, q.seq, ev})
	q.arm()
}

// Prune drops entries from the head of the Watch lane for as long as live
// reports them dead, so the lane's head is the oldest entry still worth
// waiting for.
func (q *Deadlines[T]) Prune(live func(T) bool) {
	for q.head < len(q.watch) && !live(q.watch[q.head].ev) {
		q.popWatch()
	}
}

// Watched returns the number of entries on the Watch lane.
func (q *Deadlines[T]) Watched() int { return len(q.watch) - q.head }

// OldestWatch returns the deadline at the head of the Watch lane.
func (q *Deadlines[T]) OldestWatch() (time.Time, bool) {
	if q.head == len(q.watch) {
		return time.Time{}, false
	}
	return q.watch[q.head].at, true
}

// Due hands every entry whose deadline has passed to fn, in deadline order
// (insertion order among equals, across both lanes), then re-arms the
// runtime timer for the earliest entry left. fn may queue further entries.
func (q *Deadlines[T]) Due(fn func(T)) {
	now := q.clock.Now()
	for {
		d, onWatch, ok := q.earliest()
		if !ok || d.at.After(now) {
			break
		}
		if onWatch {
			q.popWatch()
		} else {
			q.popTimed()
		}
		fn(d.ev)
	}
	// Whatever the timer was set for has been handled (or it has fired, and
	// this call is the answer): set it afresh.
	q.armed.Store(false)
	q.arm()
}

// Armed reports whether the runtime timer is set. Safe from any goroutine.
func (q *Deadlines[T]) Armed() bool { return q.armed.Load() }

// Stop cancels the runtime timer and empties both lanes; wake is not called
// once Stop has returned.
func (q *Deadlines[T]) Stop() {
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
	if q.timer != nil {
		q.timer.Stop()
	}
	q.armed.Store(false)
	q.timed, q.watch, q.head = nil, nil, 0
}

// fire runs on the runtime timer's goroutine.
func (q *Deadlines[T]) fire() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.stopped {
		q.wake()
	}
}

// earliest returns the entry that falls due first and the lane it is on.
func (q *Deadlines[T]) earliest() (d deadline[T], onWatch, ok bool) {
	hasWatch, hasTimed := q.head < len(q.watch), len(q.timed) > 0
	switch {
	case hasWatch && (!hasTimed || q.watch[q.head].before(q.timed[0])):
		return q.watch[q.head], true, true
	case hasTimed:
		return q.timed[0], false, true
	}
	return d, false, false
}

// arm moves the runtime timer up to the earliest queued deadline. It never
// moves it back: after a Prune the timer may be set for an entry that is
// gone, and that fire finds nothing due and re-arms — one idle wakeup per
// timeout period, against a timer reset per pruned batch.
func (q *Deadlines[T]) arm() {
	d, _, ok := q.earliest()
	if !ok || (q.armed.Load() && !d.at.Before(q.armedAt)) {
		return
	}
	q.armedAt = d.at
	q.armed.Store(true)
	wait := d.at.Sub(q.clock.Now())
	if q.timer == nil {
		q.timer = q.clock.AfterFunc(wait, q.fire)
	} else {
		q.timer.Reset(wait)
	}
}

func (q *Deadlines[T]) popWatch() {
	var zero deadline[T]
	q.watch[q.head] = zero
	q.head++
	// Slide the live tail down once the dead prefix is at least as long, so
	// the backing array stays proportional to the entries queued.
	if q.head*2 >= len(q.watch) {
		n := copy(q.watch, q.watch[q.head:])
		clear(q.watch[n:])
		q.watch, q.head = q.watch[:n], 0
	}
}

func (q *Deadlines[T]) popTimed() {
	var zero deadline[T]
	n := len(q.timed) - 1
	q.timed[0] = q.timed[n]
	q.timed[n] = zero
	q.timed = q.timed[:n]
	for i := 0; ; {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < n && q.timed[c].before(q.timed[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		q.timed[i], q.timed[least] = q.timed[least], q.timed[i]
		i = least
	}
}
