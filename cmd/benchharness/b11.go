package main

// B11: sharded multi-group SMR. Two questions, two workloads:
//
//   1. Write scaling — does aggregate write throughput scale with shard
//      count? Each point runs N independent MinBFT groups behind the shard
//      router with a per-link delay on every group's network. The delay
//      puts a single group in the latency-bound regime (its throughput is
//      window/RTT, far below one core's execution ceiling), which is the
//      regime sharding is for: on this single-core CI box a zero-delay
//      group is CPU-bound and adding groups could only reshuffle the same
//      core. Real deployments are in the latency-bound regime by default —
//      see EXPERIMENTS.md B11.
//   2. Router overhead on the read fast path — a read-only leased workload
//      through the sharded client at zero delay, sized like B10's lease
//      point (same per-client windows, same total client count), so its
//      aggregate reads/s is directly comparable to the PR 7 single-group
//      lease row.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"unidir/internal/cluster"
	"unidir/internal/harness"
	"unidir/internal/sig"
	"unidir/internal/smr"
)

const (
	b11Batch = 64
	// b11WriteWindow in-flight writes per group under b11LinkDelay of
	// one-way link latency: each group tops out near window/RTT, well under
	// the execution ceiling, so added groups add real capacity.
	b11WriteWindow = 64
	b11LinkDelay   = 2 * time.Millisecond
	// The read point mirrors B10's lease configuration so the rows compare:
	// 4 pipelined clients in total (B10: 4 on one group; here: one per
	// group on 4 groups — same client-side receive capacity).
	b11ReadShards = 4
	b11ReadWindow = 256
	b11KeysPer    = 64 // pre-populated keys per group
)

var b11WriteShards = []int{1, 2, 4}

func expB11(ops int, rep *report) error {
	fmt.Println("B11: sharded multi-group SMR — write scaling and router overhead (minbft, f=1 per group)")
	fmt.Printf("  %-14s %6s %8s %10s %10s %10s\n",
		"point", "shards", "ops", "ops/s", "p50", "p99")

	var baseline float64
	for _, shards := range b11WriteShards {
		perGroup := b11WriteOps(ops)
		sc, err := harness.BuildSharded(cluster.MinBFT, harness.ShardedConfig{
			Shards:    shards,
			LinkDelay: b11LinkDelay,
			SMR: harness.SMRConfig{
				F: 1, Scheme: sig.HMAC,
				Batch: b11Batch, Window: b11WriteWindow,
			},
		})
		if err != nil {
			return err
		}
		lats, sheds, elapsed, err := b11Drive(sc, perGroup, false)
		sc.Stop()
		if err != nil {
			return fmt.Errorf("write point shards=%d: %w", shards, err)
		}
		total := shards * perGroup
		opsPerSec := float64(len(lats)) / elapsed.Seconds()
		p50, p99 := percentileUS(lats, 0.50), percentileUS(lats, 0.99)
		scale := ""
		if shards == 1 {
			baseline = opsPerSec
		} else if baseline > 0 {
			scale = fmt.Sprintf("  (%.2fx 1-shard)", opsPerSec/baseline)
		}
		fmt.Printf("  %-14s %6d %8d %10.0f %9.0fµs %9.0fµs%s\n",
			"write-scaling", shards, total, opsPerSec, p50, p99, scale)
		rep.add(benchRow{
			Exp: "b11", Impl: "minbft", N: 3, F: 1, Shards: shards,
			Batch: b11Batch, Window: b11WriteWindow, Ops: total,
			Seconds:       elapsed.Seconds(),
			OpsPerSec:     opsPerSec,
			MeanLatencyUS: meanUS(lats),
			P50LatencyUS:  p50,
			P99LatencyUS:  p99,
			Mode:          "write",
			Sheds:         sheds,
		})
	}

	// Router-overhead point: leased reads through the sharded client.
	perGroup := b11ReadOps(ops)
	sc, err := harness.BuildSharded(cluster.MinBFT, harness.ShardedConfig{
		Shards: b11ReadShards,
		SMR: harness.SMRConfig{
			F: 1, Scheme: sig.HMAC,
			Batch: b11Batch, Window: b11ReadWindow,
			ReadWindow: b11ReadWindow,
		},
	})
	if err != nil {
		return err
	}
	lats, sheds, elapsed, err := b11Drive(sc, perGroup, true)
	sc.Stop()
	if err != nil {
		return fmt.Errorf("lease point: %w", err)
	}
	readsPerSec := float64(len(lats)) / elapsed.Seconds()
	p50, p99 := percentileUS(lats, 0.50), percentileUS(lats, 0.99)
	fmt.Printf("  %-14s %6d %8d %10.0f %9.0fµs %9.0fµs  (compare B10 lease, read-only)\n",
		"lease-router", b11ReadShards, b11ReadShards*perGroup, readsPerSec, p50, p99)
	rep.add(benchRow{
		Exp: "b11", Impl: "minbft", N: 3, F: 1, Shards: b11ReadShards,
		Batch: b11Batch, Window: b11ReadWindow, Ops: b11ReadShards * perGroup,
		Seconds:      elapsed.Seconds(),
		OpsPerSec:    readsPerSec,
		P50LatencyUS: p50,
		P99LatencyUS: p99,
		Mode:         "lease",
		Sheds:        sheds,
		ReadRatio:    1,
		ReadsPerSec:  readsPerSec,
		ReadP50US:    p50,
		ReadP99US:    p99,
	})
	return nil
}

// b11WriteOps sizes one write point per group: under b11LinkDelay a group
// moves roughly window/RTT ≈ 16k ops/s, so this keeps each point in the
// steady state for a second or two without dominating the bench run.
func b11WriteOps(ops int) int {
	if n := 4 * ops; n > 8000 {
		return n
	}
	return 8000
}

// b11ReadOps sizes the read point per group: the leased path moves ~50k
// reads/s per client, so a point spans around a second.
func b11ReadOps(ops int) int {
	if n := 16 * ops; n > 50000 {
		return n
	}
	return 50000
}

// b11Drive pre-populates b11KeysPer keys per group, then fans out one
// goroutine per group driving perGroup async operations through the sharded
// client — leased reads when read is true, writes otherwise — each
// goroutine awaiting completions through a bounded FIFO ring (the b10
// idiom: a per-op awaiter goroutine would measure the harness, not the
// path). Returns the merged per-op latencies, the shed count, and the
// fan-out wall time.
func b11Drive(sc *harness.ShardedCluster, perGroup int, read bool) ([]time.Duration, int, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	shards := sc.Client.Groups()

	// Per-group key sets: sequential names hash where they hash, so scan
	// until every group owns b11KeysPer keys.
	keys := make([][]string, shards)
	filled := 0
	for i := 0; filled < shards; i++ {
		if i > 1<<22 {
			return nil, 0, 0, fmt.Errorf("could not assemble %d keys per group for %d groups", b11KeysPer, shards)
		}
		key := fmt.Sprintf("key-%d", i)
		g := sc.Client.Group(key)
		if len(keys[g]) < b11KeysPer {
			if keys[g] = append(keys[g], key); len(keys[g]) == b11KeysPer {
				filled++
			}
		}
	}
	for g := 0; g < shards; g++ {
		for _, key := range keys[g] {
			if err := sc.Client.Put(ctx, key, []byte("value")); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	if read {
		// Give each group's primary a beat to establish its first lease.
		time.Sleep(50 * time.Millisecond)
	}

	type groupRes struct {
		lats  []time.Duration // slot i: op i's latency; 0 = shed or errored
		sheds atomic.Int64
		err   atomic.Value
	}
	perRes := make([]groupRes, shards)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < shards; g++ {
		wg.Add(1)
		gr := &perRes[g]
		gr.lats = make([]time.Duration, perGroup)
		go func(g int, gr *groupRes) {
			defer wg.Done()
			type pend struct {
				i      int
				t0     time.Time
				result func() ([]byte, error)
			}
			// The ring is exactly as deep as the pipeline window: the
			// awaited op is the one whose completion freed the submit slot
			// we just took, so submit→await tracks submit→complete and the
			// recorded latency is honest. A deeper ring would let long-done
			// ops sit unawaited and report ring residency, not path latency.
			awaitDepth := b11WriteWindow
			if read {
				awaitDepth = b11ReadWindow
			}
			ring := make([]pend, awaitDepth)
			var submitted int
			await := func(pd pend) {
				if _, err := pd.result(); err != nil {
					// Sheds are part of the workload, not a failure: a
					// replica under pressure replies with the typed
					// retryable ErrOverloaded. Count it and move on, like
					// B9 does. (With simnet's order-preserving delayed
					// links the closed-loop writer stays inside every
					// admission bound, so this stays at or near zero.)
					if errors.Is(err, smr.ErrOverloaded) {
						gr.sheds.Add(1)
					} else {
						gr.err.CompareAndSwap(nil, err)
					}
					return
				}
				gr.lats[pd.i] = time.Since(pd.t0)
			}
			defer func() {
				tail := submitted - awaitDepth
				if tail < 0 {
					tail = 0
				}
				for j := tail; j < submitted; j++ {
					await(ring[j%awaitDepth])
				}
			}()
			for i := 0; i < perGroup; i++ {
				key := keys[g][i%b11KeysPer]
				t0 := time.Now()
				var (
					result func() ([]byte, error)
					err    error
				)
				if read {
					var call *smr.ReadCall
					if call, err = sc.Client.RGetAsync(ctx, key); err == nil {
						result = call.Result
					}
				} else {
					var call *smr.Call
					if call, err = sc.Client.PutAsync(ctx, key, []byte("value")); err == nil {
						result = call.Result
					}
				}
				if err != nil {
					if errors.Is(err, smr.ErrOverloaded) {
						gr.sheds.Add(1)
						continue
					}
					gr.err.CompareAndSwap(nil, err)
					return
				}
				if submitted >= awaitDepth {
					await(ring[submitted%awaitDepth])
				}
				ring[submitted%awaitDepth] = pend{i, t0, result}
				submitted++
			}
		}(g, gr)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats []time.Duration
	var sheds int
	for g := range perRes {
		gr := &perRes[g]
		if err, ok := gr.err.Load().(error); ok {
			return nil, 0, 0, err
		}
		sheds += int(gr.sheds.Load())
		for _, lat := range gr.lats {
			if lat != 0 {
				lats = append(lats, lat)
			}
		}
	}
	return lats, sheds, elapsed, nil
}
