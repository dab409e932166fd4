package syncx

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 10; i++ {
		v, err := q.Pop(context.Background())
		if err != nil || v != i {
			t.Fatalf("Pop = %d, %v; want %d", v, err, i)
		}
	}
}

func TestQueueBlocksUntilPush(t *testing.T) {
	q := NewQueue[string]()
	got := make(chan string, 1)
	go func() {
		v, err := q.Pop(context.Background())
		if err == nil {
			got <- v
		}
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push("late")
	select {
	case v := <-got:
		if v != "late" {
			t.Fatalf("Pop = %q", v)
		}
	case <-time.After(time.Second):
		t.Fatal("Pop never returned")
	}
}

func TestQueueContextCancel(t *testing.T) {
	q := NewQueue[int]()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := q.Pop(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Pop err = %v", err)
	}
}

func TestQueuePushReportsAcceptance(t *testing.T) {
	q := NewQueue[int]()
	if !q.Push(1) {
		t.Fatal("Push on open queue rejected")
	}
	q.Close()
	// The rejection signal is what lets tcpnet.Send return ErrClosed instead
	// of silently dropping when it races Close.
	if q.Push(2) {
		t.Fatal("Push on closed queue claimed acceptance")
	}
	if got := q.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1 (rejected push must not enqueue)", got)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue[int]()
	q.Push(1)
	q.Push(2)
	q.Close()
	if q.Push(3) {
		t.Fatal("Push after Close accepted")
	}
	for want := 1; want <= 2; want++ {
		v, err := q.Pop(context.Background())
		if err != nil || v != want {
			t.Fatalf("Pop = %d, %v", v, err)
		}
	}
	if _, err := q.Pop(context.Background()); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("Pop after drain err = %v", err)
	}
}

func TestQueueTryPop(t *testing.T) {
	q := NewQueue[int]()
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue reported an item")
	}
	q.Push(7)
	q.Push(8)
	if v, ok := q.TryPop(); !ok || v != 7 {
		t.Fatalf("TryPop = %d, %v", v, ok)
	}
	q.Close()
	// Closed but not drained: the remaining item is still poppable.
	if v, ok := q.TryPop(); !ok || v != 8 {
		t.Fatalf("TryPop after close = %d, %v", v, ok)
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on drained queue reported an item")
	}
}

func TestQueuePopAllDrainsBacklog(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	items, err := q.PopAll(context.Background())
	if err != nil {
		t.Fatalf("PopAll: %v", err)
	}
	if len(items) != 5 {
		t.Fatalf("PopAll returned %d items", len(items))
	}
	for i, v := range items {
		if v != i {
			t.Fatalf("items[%d] = %d", i, v)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after PopAll = %d", q.Len())
	}
}

func TestQueuePopAllBlocksAndCloses(t *testing.T) {
	q := NewQueue[int]()
	got := make(chan []int, 1)
	go func() {
		items, err := q.PopAll(context.Background())
		if err == nil {
			got <- items
		}
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push(42)
	select {
	case items := <-got:
		if len(items) != 1 || items[0] != 42 {
			t.Fatalf("PopAll = %v", items)
		}
	case <-time.After(time.Second):
		t.Fatal("PopAll never returned")
	}
	q.Close()
	if _, err := q.PopAll(context.Background()); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("PopAll after close err = %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := NewQueue[int]().PopAll(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PopAll ctx err = %v", err)
	}
}

func TestQueueConcurrent(t *testing.T) {
	q := NewQueue[int]()
	const producers, per = 4, 250
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push(p*per + i)
			}
		}(p)
	}
	seen := make(map[int]bool)
	var mu sync.Mutex
	var cg sync.WaitGroup
	for c := 0; c < 3; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, err := q.Pop(context.Background())
				if err != nil {
					return
				}
				mu.Lock()
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Wait for consumers to drain, then close.
	for q.Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	q.Close()
	cg.Wait()
	if len(seen) != producers*per {
		t.Fatalf("consumed %d distinct items, want %d", len(seen), producers*per)
	}
}

func TestPulseWakesAllWaiters(t *testing.T) {
	p := NewPulse()
	const waiters = 5
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		ch := p.Wait()
		go func() {
			defer wg.Done()
			<-ch
		}()
	}
	p.Fire()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Fire did not wake all waiters")
	}
}

func TestPulseGenerations(t *testing.T) {
	p := NewPulse()
	ch1 := p.Wait()
	p.Fire()
	ch2 := p.Wait()
	select {
	case <-ch1:
	default:
		t.Fatal("old generation not closed")
	}
	select {
	case <-ch2:
		t.Fatal("new generation closed prematurely")
	default:
	}
}

// TestQueuePopAllSwapReuses: a consumer that hands back the slice of its
// previous wakeup keeps FIFO order, and its producer's pushes stop
// allocating.
func TestQueuePopAllSwapReuses(t *testing.T) {
	q := NewQueue[int]()
	ctx := context.Background()
	var spare []int
	next := 0
	cycle := func() {
		for i := 0; i < 8; i++ {
			q.Push(next + i)
		}
		got, err := q.PopAllSwap(ctx, spare)
		if err != nil || len(got) != 8 || got[0] != next || got[7] != next+7 {
			t.Fatalf("PopAllSwap = %v, %v (want %d..%d)", got, err, next, next+7)
		}
		next += 8
		spare = got[:0]
	}
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("push/drain cycle allocated %v times", allocs)
	}
}

// TestQueuePopRewinds: a consumer that pops one item at a time keeps FIFO
// order whether it keeps up or lags, the producer's pushes stop allocating
// once the consumer keeps up, and a lagging consumer's backlog is slid
// forward instead of growing the buffer without bound.
func TestQueuePopRewinds(t *testing.T) {
	q := NewQueue[int]()
	pushed, popped := 0, 0
	pop := func() {
		v, ok := q.TryPop()
		if !ok || v != popped {
			t.Fatalf("TryPop = %d, %v; want %d", v, ok, popped)
		}
		popped++
	}
	keepUp := func() {
		for i := 0; i < 8; i++ {
			q.Push(pushed)
			pushed++
		}
		for i := 0; i < 8; i++ {
			pop()
		}
	}
	keepUp()
	if allocs := testing.AllocsPerRun(100, keepUp); allocs != 0 {
		t.Fatalf("push/pop cycle allocated %v times", allocs)
	}
	// Lag by 16 items for a long run: two pushes per pop while the backlog
	// builds, then one each.
	for i := 0; i < 16; i++ {
		q.Push(pushed)
		pushed++
	}
	for i := 0; i < 10000; i++ {
		q.Push(pushed)
		pushed++
		pop()
	}
	if n := q.Len(); n != 16 {
		t.Fatalf("Len = %d, want 16", n)
	}
	q.mu.Lock()
	c := cap(q.items)
	q.mu.Unlock()
	if c > 64 {
		t.Fatalf("a backlog of 16 grew the buffer to %d", c)
	}
	for q.Len() > 0 {
		pop()
	}
}
