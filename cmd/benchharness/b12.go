package main

// B12: introspection-plane overhead. The question: what does the watch
// auditor cost the data path? Each point is B11's 2-shard write workload
// (same link delay, windows, and batch deadline, so the no-doctor row is
// directly comparable to BENCH_9.json's shards=2 write row); the doctor
// row adds a Watcher polling every replica's Status at a 1s interval —
// the cadence unidir-doctor -watch 1s uses — for the whole run, auditing
// each scrape. Overhead is the throughput delta between the rows.
//
// Status requests ride the replicas' ordinary event queues, so the cost of
// a scrape is six queue round-trips per second against tens of thousands
// of consensus events — the acceptance bar is <= 2% throughput loss.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"time"

	"unidir/internal/cluster"
	"unidir/internal/harness"
	"unidir/internal/obs"
	"unidir/internal/sig"
	"unidir/internal/watch"
)

const (
	b12Shards   = 2
	b12Interval = time.Second
)

func expB12(ops int, rep *report) error {
	fmt.Println("B12: introspection overhead — B11's 2-shard write point with and without a 1s-polling auditor (minbft, f=1 per group)")
	fmt.Printf("  %-14s %6s %8s %10s %10s %10s\n",
		"point", "shards", "ops", "ops/s", "p50", "p99")

	var baseline float64
	for _, doctor := range []bool{false, true} {
		perGroup := b11WriteOps(ops)
		reg := obs.NewRegistry()
		sc, err := harness.BuildSharded(cluster.MinBFT, harness.ShardedConfig{
			Shards:    b12Shards,
			LinkDelay: b11LinkDelay,
			SMR: harness.SMRConfig{
				F: 1, Scheme: sig.HMAC,
				Batch: b11Batch, Window: b11WriteWindow,
				BatchDeadline: b11Deadline,
				Metrics:       reg,
			},
		})
		if err != nil {
			return err
		}

		mode := "no-doctor"
		var stopWatch context.CancelFunc
		var watcher *watch.Watcher
		if doctor {
			mode = "doctor-1s"
			obs.SetBuildInfo(reg, "binary", "benchharness")
			var sources []watch.Source
			for g, group := range sc.Groups {
				providers := make([]obs.StatusProvider, 0, len(group.Replicas))
				for _, r := range group.Replicas {
					providers = append(providers, r)
				}
				sources = append(sources, watch.Local(strconv.Itoa(g), providers...))
			}
			watcher = watch.New(watch.Config{
				Sources: sources,
				Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
				Metrics: reg,
			})
			var wctx context.Context
			wctx, stopWatch = context.WithCancel(context.Background())
			go watcher.Run(wctx, b12Interval)
		}

		lats, sheds, elapsed, err := b11Drive(sc, perGroup, false)
		if stopWatch != nil {
			stopWatch()
		}
		sc.Stop()
		if err != nil {
			return fmt.Errorf("b12 %s: %w", mode, err)
		}
		if watcher != nil {
			if n := watcher.TotalViolations(); n != 0 {
				return fmt.Errorf("b12: auditor flagged %d violations on a healthy run: %+v",
					n, watcher.Violations())
			}
			if got := reg.Snapshot().Counter("watch_scrapes_total"); got == 0 {
				return fmt.Errorf("b12: auditor never scraped")
			}
		}

		total := b12Shards * perGroup
		opsPerSec := float64(len(lats)) / elapsed.Seconds()
		p50, p99 := percentileUS(lats, 0.50), percentileUS(lats, 0.99)
		overhead := ""
		if !doctor {
			baseline = opsPerSec
		} else if baseline > 0 {
			overhead = fmt.Sprintf("  (%+.2f%% vs no-doctor)", 100*(opsPerSec-baseline)/baseline)
		}
		fmt.Printf("  %-14s %6d %8d %10.0f %9.0fµs %9.0fµs%s\n",
			mode, b12Shards, total, opsPerSec, p50, p99, overhead)
		rep.add(benchRow{
			Exp: "b12", Impl: "minbft", N: 3, F: 1, Shards: b12Shards,
			Batch: b11Batch, Window: b11WriteWindow, Ops: total,
			Seconds:       elapsed.Seconds(),
			OpsPerSec:     opsPerSec,
			MeanLatencyUS: meanUS(lats),
			P50LatencyUS:  p50,
			P99LatencyUS:  p99,
			Mode:          mode,
			Sheds:         sheds,
		})
	}
	return nil
}
