package minbft_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/minbft"
	"unidir/internal/smr"
	"unidir/internal/types"
)

// checkNoDoubleExecution asserts no (client, num) pair appears twice in any
// replica's execution log — batching plus view-change re-proposal must never
// defeat the per-client dedup table.
func checkNoDoubleExecution(t *testing.T, h *harness, skip map[int]bool) {
	t.Helper()
	for i, log := range h.logs {
		if skip[i] {
			continue
		}
		seen := make(map[[2]uint64]bool)
		for _, cmd := range log.Snapshot() {
			req, err := smr.DecodeRequest(cmd)
			if err != nil {
				t.Fatalf("replica %d: undecodable log entry: %v", i, err)
			}
			key := [2]uint64{req.Client, req.Num}
			if seen[key] {
				t.Fatalf("replica %d executed request client=%d num=%d twice", i, req.Client, req.Num)
			}
			seen[key] = true
		}
	}
}

func TestBatchedBurstCommits(t *testing.T) {
	// A burst from several clients against a batching primary: everything
	// commits, no request executes twice, logs agree.
	h := newHarness(t, 3, 1, 4, 2*time.Second, smr.EngineConfig{BatchSize: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			kv := h.client(c)
			for i := 0; i < 8; i++ {
				if err := kv.Put(ctx, fmt.Sprintf("b%d-%d", c, i), []byte{byte(i)}); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, log := range h.logs {
		for len(log.Snapshot()) < 32 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if got := len(log.Snapshot()); got != 32 {
			t.Fatalf("executed %d commands, want 32", got)
		}
	}
	h.checkLogsConsistent(nil)
	checkNoDoubleExecution(t, h, nil)
}

func TestBatchedViewChangeNoLossNoDouble(t *testing.T) {
	// Clients push batched traffic while the primary is crashed mid-stream.
	// The view change must re-propose every pending batch under the new
	// primary without losing or double-executing a single request.
	h := newHarness(t, 3, 1, 3, 150*time.Millisecond, smr.EngineConfig{BatchSize: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	warm := make(chan struct{}, 3) // one signal per client after its 3rd put
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			kv := h.client(c)
			for i := 0; i < 10; i++ {
				if err := kv.Put(ctx, fmt.Sprintf("vc%d-%d", c, i), []byte{byte(i)}); err != nil {
					errs[c] = fmt.Errorf("put %d: %w", i, err)
					return
				}
				if i == 2 {
					warm <- struct{}{}
				}
			}
		}(c)
	}
	// Crash the primary once every client has committed work in view 0 and
	// still has puts in flight.
	for i := 0; i < 3; i++ {
		<-warm
	}
	_ = h.replicas[0].Close()
	h.replicas[0] = nil
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	// Totality: every acknowledged request appears in both surviving logs.
	deadline := time.Now().Add(15 * time.Second)
	for _, i := range []int{1, 2} {
		for len(h.logs[i].Snapshot()) < 30 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if got := len(h.logs[i].Snapshot()); got != 30 {
			t.Fatalf("replica %d executed %d commands, want 30 (request lost in view change)", i, got)
		}
	}
	for _, i := range []int{1, 2} {
		if got := h.replicas[i].View(); got < 1 {
			t.Fatalf("replica %d never left view 0", i)
		}
	}
	skip := map[int]bool{0: true}
	h.checkLogsConsistent(skip)
	checkNoDoubleExecution(t, h, skip)
}

func TestWatchdogStateBoundedByPending(t *testing.T) {
	// Watchdog state must follow the requests still pending, not every
	// request of the last reqTimeout: 20k PUTs inside one 5 s timeout used
	// to leave ~20k armed runtime timers (and their closures, map entries and
	// expiry goroutines) at every replica. Now a replica has one runtime
	// timer, and a watchdog lane pruned as batches execute.
	const (
		ops    = 20000
		window = 64
	)
	h := newHarness(t, 3, 1, 1, 5*time.Second, smr.EngineConfig{BatchSize: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	id := types.ProcessID(h.m.N)
	pl, err := smr.NewPipeline(h.net.Endpoint(id), h.m.All(), h.m.FPlusOne(), uint64(id),
		time.Second, window, smr.WithPipelineRequestEncoder(minbft.EncodeRequestEnvelope))
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	defer pl.Close()
	check := func(when string) {
		t.Helper()
		for i, r := range h.replicas {
			if got := r.PendingTimers(); got > 1 {
				t.Fatalf("%s: replica %d has %d armed runtime timers, want at most 1", when, i, got)
			}
			// One cut of the run goroutine's state. A single in-order client
			// executes in arrival order, so head-pruning is exact; the +1 is
			// the request being admitted when the cut is taken.
			st := r.Status()
			if st.WatchdogEntries > st.PendingRequests+1 {
				t.Fatalf("%s: replica %d holds %d watchdogs for %d pending requests",
					when, i, st.WatchdogEntries, st.PendingRequests)
			}
		}
	}
	calls := make([]*smr.Call, 0, ops)
	for i := 0; i < ops; i++ {
		call, err := pl.Submit(ctx, kvstore.EncodePut(fmt.Sprintf("k%d", i%128), []byte{byte(i)}))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		calls = append(calls, call)
		if i == ops/2 {
			check("mid-run")
		}
	}
	for i, call := range calls {
		if _, err := call.Result(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	check("at the end")
}

func TestWatchdogTimersCanceledOnClose(t *testing.T) {
	// Regression: nothing of the timer plane may outlive Close — the one
	// runtime timer is stopped and the deadline queue emptied. A long request
	// timeout keeps that timer armed for the whole test.
	h := newHarness(t, 3, 1, 2, 30*time.Second)
	kv := h.client(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := kv.Put(ctx, "armed", []byte("x")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// A backup that met the Put inside the primary's PREPARE before the
	// client's own copy arrived never watched it. Hand every replica a
	// request of its own, so that each provably has a watchdog queued.
	stray := types.ProcessID(h.m.N + 1)
	req := smr.Request{Client: uint64(stray), Num: 1, Op: kvstore.EncodePut("stray", nil)}
	for i := len(h.replicas) - 1; i >= 0; i-- { // the primary last: no PREPARE can overtake a backup's copy
		h.net.Inject(stray, types.ProcessID(i), minbft.EncodeRequestEnvelope([]smr.Request{req}))
	}
	for i, r := range h.replicas {
		for deadline := time.Now().Add(10 * time.Second); r.PendingTimers() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d has no armed timer before Close", i)
			}
		}
	}
	for i, r := range h.replicas {
		if err := r.Close(); err != nil {
			t.Fatalf("Close(%d): %v", i, err)
		}
		if got := r.PendingTimers(); got != 0 {
			t.Fatalf("replica %d still has %d armed timers after Close", i, got)
		}
	}
}
