// Package syncx provides two small concurrency helpers used across the
// protocol packages: an unbounded FIFO Queue with context-aware blocking Pop
// (protocol mailboxes must never apply backpressure to the network, or
// protocol goroutines could deadlock through it), and a Pulse broadcast
// primitive for "state changed, re-check your predicate" wakeups.
package syncx

import (
	"context"
	"errors"
	"sync"
)

// ErrQueueClosed reports a Pop on a closed, drained queue.
var ErrQueueClosed = errors.New("syncx: queue closed")

// Queue is an unbounded FIFO. The zero value is not ready; use NewQueue.
type Queue[T any] struct {
	mu sync.Mutex
	// items[head:] are queued. Pop zeroes what it takes, so a popped item
	// is not kept reachable, and rewinds to the start of the buffer when the
	// queue empties, so a consumer that keeps up never makes Push grow it;
	// one that lags has the queued items slid forward when Push finds the
	// buffer full and at least half popped.
	items  []T
	head   int
	notify chan struct{}
	closed bool
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] {
	return &Queue[T]{notify: make(chan struct{}, 1)}
}

// Push appends v and reports whether the queue accepted it. A closed queue
// rejects pushes; callers that promise delivery (e.g. a transport Send that
// returns nil) must check the result rather than assume acceptance.
func (q *Queue[T]) Push(v T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if len(q.items) == cap(q.items) && 2*q.head >= len(q.items) && q.head > 0 {
		// Full, and at least half of it popped: slide the queued items to
		// the front rather than grow a buffer that is mostly dead.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	q.mu.Unlock()
	q.wake()
	return true
}

// Pop removes and returns the oldest item, blocking until one is available,
// ctx is done, or the queue is closed and drained.
func (q *Queue[T]) Pop(ctx context.Context) (T, error) {
	var zero T
	for {
		q.mu.Lock()
		if v, ok := q.popLocked(); ok {
			q.mu.Unlock()
			return v, nil
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			// Cascade the wakeup: the notify token holds at most one
			// waiter's attention, so each waiter that observes the closed,
			// drained queue re-arms it for the next one.
			q.wake()
			return zero, ErrQueueClosed
		}
		select {
		case <-q.notify:
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// TryPop removes and returns the oldest item without blocking. The second
// return is false when the queue is currently empty (closed or not).
func (q *Queue[T]) TryPop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

// popLocked takes the oldest item, if any. The caller holds q.mu.
func (q *Queue[T]) popLocked() (T, bool) {
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v, true
}

// PopAll removes and returns every queued item in FIFO order, blocking until
// at least one is available, ctx is done, or the queue is closed and
// drained. It is the batch form of Pop: a consumer that coalesces work
// (e.g. a transport writer flushing many frames per syscall) drains the
// whole backlog in one wakeup instead of one item per lock acquisition.
func (q *Queue[T]) PopAll(ctx context.Context) ([]T, error) {
	return q.PopAllSwap(ctx, nil)
}

// PopAllSwap is PopAll for a consumer that recycles what it drained: spare,
// emptied, becomes the queue's buffer, so once the consumer hands back the
// slice of its previous wakeup, Push stops allocating. The caller must not
// touch spare afterwards.
func (q *Queue[T]) PopAllSwap(ctx context.Context, spare []T) ([]T, error) {
	for {
		q.mu.Lock()
		if q.head < len(q.items) {
			items := q.items[q.head:]
			q.items, q.head = spare[:0], 0
			q.mu.Unlock()
			return items, nil
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			q.wake() // cascade, as in Pop
			return nil, ErrQueueClosed
		}
		select {
		case <-q.notify:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Len returns the current number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// Close marks the queue closed. Queued items remain poppable; once drained,
// Pop returns ErrQueueClosed.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wake()
}

func (q *Queue[T]) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// Pulse is a broadcast wakeup: waiters grab the current generation channel
// with Wait and block on it; Fire closes the generation, waking everyone.
// Waiters then re-check their predicate and call Wait again if unsatisfied.
// The zero value is not ready; use NewPulse.
type Pulse struct {
	mu sync.Mutex
	ch chan struct{}
}

// NewPulse returns a ready Pulse.
func NewPulse() *Pulse {
	return &Pulse{ch: make(chan struct{})}
}

// Wait returns the current generation channel. It is closed by the next
// Fire. Callers must re-acquire via Wait after each wakeup.
func (p *Pulse) Wait() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ch
}

// Fire wakes all current waiters.
func (p *Pulse) Fire() {
	p.mu.Lock()
	close(p.ch)
	p.ch = make(chan struct{})
	p.mu.Unlock()
}
