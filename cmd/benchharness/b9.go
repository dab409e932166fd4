package main

// B9: the latency/throughput frontier. An open-loop load generator paces
// puts at a target offered rate through the pipelined client while the
// cluster runs the adaptive flow-control stack (size-or-deadline batching +
// admission control + AIMD client window). Each point reports achieved
// throughput, p50/p99 completion latency, and how many requests were shed —
// the frontier is the curve those points trace as offered load passes
// saturation. (The fixed-batch-window baseline this was first charted
// against is gone from the library; its rows are history in EXPERIMENTS.md
// B9 and BENCH_6.json.)

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"unidir/internal/harness"
	"unidir/internal/kvstore"
	"unidir/internal/sig"
	"unidir/internal/smr"
)

// b9Rates is the offered-load sweep, requests/second. The top rates sit past
// simnet saturation for both protocols so the degradation behavior shows.
var b9Rates = []int{2_000, 8_000, 32_000, 64_000, 128_000}

const (
	b9Batch    = 64
	b9Window   = 256
	b9Deadline = 100 * time.Microsecond
	// b9AdmitPending sits below the client window so that past saturation the
	// replicas' pending queues actually hit the bound and shed, rather than
	// the window absorbing the whole backlog.
	b9AdmitPending  = 128
	b9SubmitTimeout = 2 * time.Millisecond
	b9WindowMin     = 8
)

type b9Result struct {
	elapsed time.Duration
	lats    []time.Duration
	sheds   int
}

func expB9(ops int, rep *report) error {
	type protocol struct {
		name  string
		build func(harness.SMRConfig) (*harness.SMRCluster, error)
		n     int
	}
	protocols := []protocol{
		{"minbft", harness.BuildMinBFTCfg, 3},
		{"pbft", harness.BuildPBFTCfg, 4},
	}
	// mode keys the rows against the checked-in baselines.
	const mode = "adaptive"
	cfg := harness.SMRConfig{
		F: 1, Scheme: sig.HMAC, Batch: b9Batch, Window: b9Window,
		BatchDeadline:  b9Deadline,
		Admission:      &smr.AdmissionConfig{MaxPending: b9AdmitPending},
		SubmitTimeout:  b9SubmitTimeout,
		AdaptiveWindow: b9WindowMin,
	}

	fmt.Println("B9: latency/throughput frontier — adaptive flow control (f=1)")
	fmt.Printf("  %-8s %-9s %10s %10s %10s %10s %8s %7s\n",
		"protocol", "mode", "offered/s", "achieved/s", "p50", "p99", "sheds", "window")
	for _, p := range protocols {
		for _, rate := range b9Rates {
			pointOps := b9PointOps(rate, ops)
			c, err := p.build(cfg)
			if err != nil {
				return err
			}
			res, err := paceKVOps(c.Pipe, rate, pointOps)
			windowEnd := c.Pipe.Window()
			c.Stop()
			if err != nil {
				return fmt.Errorf("%s rate=%d: %w", p.name, rate, err)
			}
			achieved := float64(len(res.lats)) / res.elapsed.Seconds()
			p50 := percentileUS(res.lats, 0.50)
			p99 := percentileUS(res.lats, 0.99)
			fmt.Printf("  %-8s %-9s %10d %10.0f %9.0fµs %9.0fµs %8d %7d\n",
				p.name, mode, rate, achieved, p50, p99, res.sheds, windowEnd)
			rep.add(benchRow{
				Exp: "b9", Impl: p.name, N: p.n, F: 1,
				Batch: b9Batch, Window: b9Window, Ops: pointOps,
				Seconds:       res.elapsed.Seconds(),
				OpsPerSec:     achieved,
				MeanLatencyUS: meanUS(res.lats),
				P50LatencyUS:  p50,
				P99LatencyUS:  p99,
				Mode:          mode,
				OfferedPerSec: float64(rate),
				Sheds:         res.sheds,
				WindowEnd:     windowEnd,
			})
		}
	}
	return nil
}

// b9PointOps sizes one sweep point: roughly a quarter second of traffic at
// the offered rate, floored at the -ops flag and capped at 40x it so the
// high-rate points stay affordable.
func b9PointOps(rate, ops int) int {
	n := rate / 4
	if n < ops {
		n = ops
	}
	if max := 40 * ops; n > max {
		n = max
	}
	return n
}

// paceKVOps offers ops puts at the target rate (requests/second) and waits
// for every outcome. A request that the stack sheds — at Submit (window
// exhausted past the timeout) or by a replica quorum (admission control) —
// counts in sheds and not in the latency sample. The pacer never bursts to
// catch up after a stall: offered load is a rate, not a debt.
func paceKVOps(kv *kvstore.PipeClient, rate, ops int) (b9Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var (
		mu       sync.Mutex
		res      b9Result
		firstErr error
		wg       sync.WaitGroup
	)
	res.lats = make([]time.Duration, 0, ops)
	interval := time.Second / time.Duration(rate)
	start := time.Now()
	next := start
	for i := 0; i < ops; i++ {
		if d := time.Until(next); d > 50*time.Microsecond {
			time.Sleep(d)
		}
		next = next.Add(interval)
		if now := time.Now(); next.Before(now) {
			next = now
		}
		t0 := time.Now()
		call, err := kv.PutAsync(ctx, fmt.Sprintf("key-%d", i%64), []byte("value"))
		if err != nil {
			if errors.Is(err, smr.ErrOverloaded) {
				mu.Lock()
				res.sheds++
				mu.Unlock()
				continue
			}
			return res, err
		}
		wg.Add(1)
		go func(call *smr.Call, t0 time.Time) {
			defer wg.Done()
			_, err := call.Result()
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				res.lats = append(res.lats, lat)
			case errors.Is(err, smr.ErrOverloaded):
				res.sheds++
			case firstErr == nil:
				firstErr = err
			}
		}(call, t0)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res, firstErr
}

func meanUS(lats []time.Duration) float64 {
	if len(lats) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	return float64(sum.Microseconds()) / float64(len(lats))
}
