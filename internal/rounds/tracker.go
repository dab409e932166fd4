package rounds

import (
	"context"
	"fmt"
	"sync"

	"unidir/internal/syncx"
	"unidir/internal/types"
)

// tracker is the shared bookkeeping core of every round system: the table of
// first-seen round messages per (round, sender), the exactly-once delivery
// stream, send-order enforcement, observer reporting, and wakeups for
// predicate waiters.
//
// Observer events are reported under the tracker lock, in order with the
// table writes they describe: a waiter that sees a message in the table (a
// WaitEnd returning, say) knows its Got was reported first, so a Boundary
// declared when WaitEnd returns cannot overtake the Got that ended the round.
// An Observer must therefore not call back into the round system.
type tracker struct {
	self types.ProcessID
	m    types.Membership
	obs  Observer

	mu       sync.Mutex
	table    map[types.Round]map[types.ProcessID][]byte
	lastSent types.Round
	closed   bool

	inbox *syncx.Queue[Msg]
	pulse *syncx.Pulse
}

func newTracker(self types.ProcessID, m types.Membership, obs Observer) *tracker {
	return &tracker{
		self:  self,
		m:     m,
		obs:   obs,
		table: make(map[types.Round]map[types.ProcessID][]byte),
		inbox: syncx.NewQueue[Msg](),
		pulse: syncx.NewPulse(),
	}
}

// markSent enforces the strictly-increasing round discipline, records the
// process's own message, and reports Sent (and the previous round's
// Boundary) to the observer. It returns ErrRoundOrder on misuse.
func (t *tracker) markSent(r types.Round, data []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	if r <= t.lastSent {
		last := t.lastSent
		t.mu.Unlock()
		return errRoundOrder("Send", r, last)
	}
	prev := t.lastSent
	t.lastSent = r
	t.recordLocked(t.self, r, data)
	if t.obs != nil {
		if prev > 0 {
			t.obs.Boundary(t.self, prev)
		}
		t.obs.Sent(t.self, r)
	}
	t.mu.Unlock()
	t.pulse.Fire()
	return nil
}

// recordAux delivers an out-of-round message on the stream (no table entry,
// no deduplication, no observer events).
func (t *tracker) recordAux(from types.ProcessID, data []byte) {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return
	}
	t.inbox.Push(Msg{From: from, Round: 0, Data: data})
	t.pulse.Fire()
}

// record stores a peer's round message (first value wins per (round,
// sender)), delivers it on the stream, reports Got, and wakes waiters.
// Duplicate (round, sender) pairs are dropped entirely.
func (t *tracker) record(from types.ProcessID, r types.Round, data []byte) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	if byRound := t.table[r]; byRound != nil {
		if _, dup := byRound[from]; dup {
			t.mu.Unlock()
			return
		}
	}
	t.recordLocked(from, r, data)
	if t.obs != nil && from != t.self {
		t.obs.Got(t.self, from, r)
	}
	t.mu.Unlock()
	if from != t.self {
		t.inbox.Push(Msg{From: from, Round: r, Data: data})
	}
	t.pulse.Fire()
}

func (t *tracker) recordLocked(from types.ProcessID, r types.Round, data []byte) {
	byRound := t.table[r]
	if byRound == nil {
		byRound = make(map[types.ProcessID][]byte)
		t.table[r] = byRound
	}
	if _, dup := byRound[from]; !dup {
		byRound[from] = data
	}
}

// requireNotSent returns ErrRoundOrder if r would violate the
// strictly-increasing send discipline (pre-check for systems that must
// perform external work before markSent).
func (t *tracker) requireNotSent(r types.Round) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if r <= t.lastSent {
		return errRoundOrder("Send", r, t.lastSent)
	}
	return nil
}

// requireSent returns ErrRoundOrder unless this process already sent round r.
func (t *tracker) requireSent(r types.Round) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.table[r][t.self]; !ok {
		return errRoundOrder("WaitEnd", r, t.lastSent)
	}
	return nil
}

// snapshot returns a copy of round r's message table.
func (t *tracker) snapshot(r types.Round) map[types.ProcessID][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[types.ProcessID][]byte, len(t.table[r]))
	for from, data := range t.table[r] {
		out[from] = data
	}
	return out
}

// count returns the number of distinct senders recorded for round r.
func (t *tracker) count(r types.Round) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.table[r])
}

// has reports whether a message from q in round r has been recorded.
func (t *tracker) has(r types.Round, q types.ProcessID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.table[r][q]
	return ok
}

// waitFor blocks until pred() is true, ctx is done, or the tracker closes.
// pred is evaluated without the tracker lock held; it must use tracker
// accessors itself.
func (t *tracker) waitFor(ctx context.Context, pred func() bool) error {
	for {
		ch := t.pulse.Wait()
		if pred() {
			return nil
		}
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return ErrClosed
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// recv pops the next stream message.
func (t *tracker) recv(ctx context.Context) (Msg, error) {
	msg, err := t.inbox.Pop(ctx)
	if err == syncx.ErrQueueClosed {
		return Msg{}, ErrClosed
	}
	return msg, err
}

// close shuts the tracker down: reports the final Boundary, closes the
// stream, and wakes all waiters. Idempotent.
func (t *tracker) close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	if t.obs != nil && t.lastSent > 0 {
		t.obs.Boundary(t.self, t.lastSent)
	}
	t.mu.Unlock()
	t.inbox.Close()
	t.pulse.Fire()
}

func errRoundOrder(op string, r, last types.Round) error {
	return fmt.Errorf("%w: %s(%d) with last sent round %d", ErrRoundOrder, op, r, last)
}
