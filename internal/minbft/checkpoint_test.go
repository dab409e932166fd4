package minbft_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/minbft"
	"unidir/internal/smr"
	"unidir/internal/types"
)

// waitFootprint polls every non-skipped replica until pred accepts its
// footprint or the deadline passes.
func waitFootprint(t *testing.T, h *harness, skip map[int]bool, d time.Duration, pred func(minbft.Footprint) bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for i, rep := range h.replicas {
		if skip[i] || rep == nil {
			continue
		}
		for !pred(rep.Footprint()) {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d footprint never converged: %+v", i, rep.Footprint())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// logContainsOp reports whether any entry of log decodes to a request with
// exactly this operation.
func logContainsOp(t *testing.T, log *smr.ExecutionLog, op []byte) bool {
	t.Helper()
	for _, cmd := range log.Snapshot() {
		req, err := smr.DecodeRequest(cmd)
		if err != nil {
			t.Fatalf("undecodable log entry: %v", err)
		}
		if bytes.Equal(req.Op, op) {
			return true
		}
	}
	return false
}

func TestCheckpointGCBoundsState(t *testing.T) {
	const interval = 4
	h := newHarness(t, 3, 1, 1, 2*time.Second, smr.EngineConfig{CheckpointInterval: interval})
	kv := h.client(0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const ops = 24
	for i := 0; i < ops; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("gc-%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// With a closed-loop client every batch holds exactly one fresh request,
	// so execution counts match ops and the final boundary is ops itself.
	waitFootprint(t, h, nil, 10*time.Second, func(fp minbft.Footprint) bool {
		return fp.StableCount >= ops-interval
	})
	for i, rep := range h.replicas {
		fp := rep.Footprint()
		// Everything at or below the stable checkpoint is released: the
		// retained accepted-prepare log and slot records must stay far below
		// the 24 slots the run committed.
		if fp.AcceptedLog > 3*interval || fp.Entries > 3*interval {
			t.Fatalf("replica %d retains too much after GC: %+v", i, fp)
		}
		// The message store keeps a two-interval window for the fetch
		// protocol; it must not scale with run length.
		if fp.MsgStore > 20*interval {
			t.Fatalf("replica %d message store unbounded: %+v", i, fp)
		}
	}
	h.checkLogsConsistent(nil)
	checkNoDoubleExecution(t, h, nil)
}

func TestStateTransferAfterGC(t *testing.T) {
	const interval = 2
	h := newHarness(t, 3, 1, 1, 2*time.Second, smr.EngineConfig{CheckpointInterval: interval})
	kv := h.client(0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Cut replica 2 off from both peers while the rest of the cluster
	// commits far past the GC horizon (the watermark trails the stable
	// checkpoint by one interval, so > 2 intervals of progress guarantees
	// the prefix replica 2 misses is collected everywhere).
	h.net.BlockPair(2, 0)
	h.net.BlockPair(2, 1)
	for i := 0; i < 12; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("away-%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	h.net.HealAll()

	// Post-heal traffic carries checkpoint votes beyond replica 2's
	// execution; f+1 of them (or a fetch hitting the collected prefix)
	// trigger the state fetch, and the install lands it at the cluster's
	// stable count.
	for i := 0; i < 6; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("back-%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	waitFootprint(t, h, nil, 20*time.Second, func(fp minbft.Footprint) bool {
		return fp.StableCount >= 12
	})

	// Replica 2 must also execute *new* slots after the transfer, not just
	// hold installed state.
	rejoinOp := kvstore.EncodePut("rejoined", []byte("yes"))
	if err := kv.Put(ctx, "rejoined", []byte("yes")); err != nil {
		t.Fatalf("Put rejoined: %v", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for !logContainsOp(t, h.logs[2], rejoinOp) {
		if time.Now().After(deadline) {
			t.Fatal("replica 2 never executed a post-transfer request")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The transferred replica's execution log legitimately skips the slots
	// it received as state, so prefix-check only the replicas that executed
	// everything; no replica may execute anything twice.
	h.checkLogsConsistent(map[int]bool{2: true})
	checkNoDoubleExecution(t, h, nil)
}

// TestBoundedHeapLongRun drives 10k operations through a batching primary
// with the default-sized interval and asserts the retained protocol state
// stays bounded by the checkpoint window rather than growing with the run.
func TestBoundedHeapLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	const (
		interval = 128
		ops      = 10000
		window   = 32
	)
	h := newHarness(t, 3, 1, 1, 5*time.Second,
		smr.EngineConfig{CheckpointInterval: interval, BatchSize: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	id := types.ProcessID(h.m.N)
	p, err := smr.NewPipeline(h.net.Endpoint(id), h.m.All(), h.m.FPlusOne(), uint64(id),
		100*time.Millisecond, window, smr.WithPipelineRequestEncoder(minbft.EncodeRequestEnvelope))
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	defer p.Close()
	kv := kvstore.NewPipeClient(p)

	calls := make([]*smr.Call, 0, ops)
	for i := 0; i < ops; i++ {
		c, err := kv.PutAsync(ctx, fmt.Sprintf("k%04d", i%512), []byte{byte(i)})
		if err != nil {
			t.Fatalf("PutAsync %d: %v", i, err)
		}
		calls = append(calls, c)
	}
	for i, c := range calls {
		<-c.Done()
		if _, err := c.Result(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	// At least ops/batch batches executed, so the stable checkpoint must
	// have crossed many interval boundaries; the retained state must be a
	// function of the interval, not of the 10k-op history.
	waitFootprint(t, h, nil, 30*time.Second, func(fp minbft.Footprint) bool {
		return fp.StableCount >= 1024
	})
	for i, rep := range h.replicas {
		fp := rep.Footprint()
		if fp.AcceptedLog > 4*interval || fp.Entries > 4*interval {
			t.Fatalf("replica %d heap grows with run length: %+v", i, fp)
		}
		if fp.MsgStore > 40*interval {
			t.Fatalf("replica %d message store grows with run length: %+v", i, fp)
		}
	}
	h.checkLogsConsistent(nil)
	checkNoDoubleExecution(t, h, nil)
}
