package minbft_test

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"testing"
	"time"

	"unidir/internal/byz"
	"unidir/internal/minbft"
	"unidir/internal/obs"
	"unidir/internal/smr"
	"unidir/internal/types"
	"unidir/internal/watch"
)

// checkLogsMutuallyOrdered verifies pairwise that commands present in two
// replicas' logs appear in the same relative order. This is the safety
// property that survives state transfer: a replica that installed a
// checkpoint legitimately has a gap in its execution log (the transferred
// prefix was never executed locally), so prefix equality is too strong, but
// the common subsequence must still agree with the total order.
func checkLogsMutuallyOrdered(t *testing.T, h *harness) {
	t.Helper()
	snaps := make([][][]byte, len(h.logs))
	for i, log := range h.logs {
		snaps[i] = log.Snapshot()
	}
	for a := 0; a < len(snaps); a++ {
		index := make(map[string]int, len(snaps[a]))
		for i, cmd := range snaps[a] {
			index[string(cmd)] = i
		}
		for b := a + 1; b < len(snaps); b++ {
			prev := -1
			for _, cmd := range snaps[b] {
				i, ok := index[string(cmd)]
				if !ok {
					continue
				}
				if i <= prev {
					t.Fatalf("replicas %d and %d ordered a common command differently", a, b)
				}
				prev = i
			}
		}
	}
}

// TestSoak runs batched MinBFT through sustained fault injection: a lossy
// network, rolling single-link partitions, and a Byzantine spammer flooding
// every replica with garbage. The cluster must not stall — every request
// completes — and the usual safety checkers must stay green.
func TestSoak(t *testing.T) {
	const (
		n, f     = 3, 1
		interval = 8
		ops      = 150
	)
	// Endpoint n is the client, endpoint n+1 the spammer.
	h := newHarness(t, n, f, 2, 500*time.Millisecond,
		smr.EngineConfig{CheckpointInterval: interval, BatchSize: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				h.net.SetDropRate(types.ProcessID(a), types.ProcessID(b), 0.05)
			}
		}
	}
	spam := byz.NewSpammer(h.net.Endpoint(types.ProcessID(n+1)),
		h.m.All(), 97, 2*time.Millisecond)
	defer spam.Stop()

	// The safety auditor scrapes the replicas throughout the whole run —
	// view changes, state transfers, and Byzantine garbage included — and
	// must see zero violations: the churn may make replicas slow or stale,
	// never inconsistent.
	providers := make([]obs.StatusProvider, n)
	for i, rep := range h.replicas {
		providers[i] = rep
	}
	auditor := watch.New(watch.Config{
		Sources: []watch.Source{watch.Local("0", providers...)},
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	auditCtx, auditCancel := context.WithCancel(ctx)
	auditDone := make(chan struct{})
	go func() {
		defer close(auditDone)
		auditor.Run(auditCtx, 50*time.Millisecond)
	}()
	defer func() {
		auditCancel()
		<-auditDone
		if vs := auditor.Violations(); len(vs) != 0 {
			t.Errorf("auditor recorded %d safety violations during the soak: %+v", len(vs), vs)
		}
	}()

	// Rolling churn: block one replica-replica link at a time, briefly, so
	// a quorum always remains connected while every replica takes turns
	// falling behind.
	churnDone := make(chan struct{})
	churnStopped := make(chan struct{})
	go func() {
		defer close(churnStopped)
		pair := 0
		for {
			select {
			case <-churnDone:
				return
			case <-time.After(40 * time.Millisecond):
			}
			a := types.ProcessID(pair % n)
			b := types.ProcessID((pair + 1) % n)
			pair++
			h.net.BlockPair(a, b)
			select {
			case <-churnDone:
				h.net.HealAll()
				return
			case <-time.After(40 * time.Millisecond):
			}
			h.net.HealAll()
		}
	}()

	kv := h.client(0)
	for i := 0; i < ops; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("soak-%d", i), []byte{byte(i)}); err != nil {
			for j, rep := range h.replicas {
				t.Logf("replica %d: view=%d footprint=%+v log=%d",
					j, rep.View(), rep.Footprint(), len(h.logs[j].Snapshot()))
			}
			t.Fatalf("stalled: Put %d: %v", i, err)
		}
	}
	close(churnDone)
	<-churnStopped
	h.net.HealAll()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				h.net.SetDropRate(types.ProcessID(a), types.ProcessID(b), 0)
			}
		}
	}

	// A clean tail proves the cluster is still live after the abuse, and
	// gives laggards traffic to catch up (or state-transfer) on.
	for i := 0; i < 5; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("tail-%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("stalled after churn: Put %d: %v", i, err)
		}
	}
	if spam.Sent() == 0 {
		t.Fatal("spammer sent nothing; the soak exercised no byzantine traffic")
	}
	// Checkpointing must have been active throughout; every replica ends up
	// at (or transferred to) a recent stable checkpoint.
	waitFootprint(t, h, nil, 30*time.Second, func(fp minbft.Footprint) bool {
		return fp.StableCount >= interval
	})
	checkNoDoubleExecution(t, h, nil)
	checkLogsMutuallyOrdered(t, h)

	// The shared metrics registry must reflect the run. Stop the spammer
	// first (Stop is idempotent; the defer is then a no-op), then wait for
	// the work-in-progress gauges to quiesce and the sig-cache accounting to
	// settle — the cluster is idle once the tail writes complete, but the
	// last executions and queued garbage may still be landing.
	spam.Stop()
	deadline := time.Now().Add(15 * time.Second)
	var snap obs.Snapshot
	for {
		snap = h.metrics.Snapshot()
		quiet := snap.GaugeSum("minbft_open_slots") == 0 &&
			snap.GaugeSum("minbft_batches_in_flight") == 0
		settled := snap.Counter("sig_lookups_total") ==
			snap.Counter("sig_cache_hits_total")+
				snap.Counter("sig_cache_neg_hits_total")+snap.Counter("sig_verifications_total")
		if quiet && settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics did not quiesce: open_slots=%d in_flight=%d",
				snap.GaugeSum("minbft_open_slots"), snap.GaugeSum("minbft_batches_in_flight"))
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := snap.CounterSum("minbft_batches_executed_total"); got == 0 {
		t.Fatal("metrics: no executed batches recorded")
	}
	if got := snap.HistogramCount("minbft_batch_size"); got == 0 {
		t.Fatal("metrics: batch-size histogram empty")
	}
	if got := snap.CounterSum("minbft_checkpoints_stable_total"); got == 0 {
		t.Fatal("metrics: no stable checkpoints recorded")
	}
	if snap.Counter("sig_lookups_total") == 0 {
		t.Fatal("metrics: sig cache served no lookups")
	}
	// The trace rings must have retained protocol events (checkpoints at
	// minimum; view changes and state transfers when the churn forced them).
	for i := 0; i < n; i++ {
		ring := h.metrics.Trace(obs.Name("minbft", "replica", types.ProcessID(i)), 1)
		if ring.Len() == 0 {
			t.Fatalf("metrics: replica %d trace ring empty", i)
		}
	}
}
