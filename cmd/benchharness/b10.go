package main

// B10: the read fast path. A mixed read/write workload runs through the
// pipelined client at the configured read ratio, with reads taking either
// the leased fast path (the leader answers locally under a
// trusted-counter-attested lease, two messages per read) or the ordering
// path (every read is a consensus instance — the baseline the lease is
// measured against). Each point reports read and write throughput and
// latency percentiles; the headline number is the read-throughput ratio
// between the two modes at the same read mix.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"unidir/internal/harness"
	"unidir/internal/kvstore"
	"unidir/internal/sig"
	"unidir/internal/smr"
)

// b10Ratios is the default read-mix sweep: read-heavy and read-only.
var b10Ratios = []float64{0.9, 1.0}

const (
	b10Batch      = 64
	b10Window     = 256
	b10ReadWindow = 256
	b10Keys       = 64
	// b10Clients pipelined clients drive the workload concurrently: a single
	// client's receive loop tops out near the replicas' reply rate, which
	// would measure the client, not the read path.
	b10Clients = 4
)

type b10Result struct {
	elapsed   time.Duration
	readLats  []time.Duration
	writeLats []time.Duration
}

func expB10(ops int, readRatio float64, rep *report) error {
	ratios := b10Ratios
	if readRatio >= 0 {
		if readRatio > 1 {
			return fmt.Errorf("-read-ratio must be in [0, 1]")
		}
		ratios = []float64{readRatio}
	}
	type protocol struct {
		name  string
		build func(harness.SMRConfig) (*harness.SMRCluster, error)
		n     int
	}
	protocols := []protocol{
		{"minbft", harness.BuildMinBFTCfg, 3},
		{"pbft", harness.BuildPBFTCfg, 4},
	}
	type mode struct {
		name  string
		lease time.Duration // LeaseTerm for the cluster config
	}
	modes := []mode{
		{"lease", 0},      // replica default: leases on (UNIDIR_LEASE, 250ms)
		{"consensus", -1}, // leases off; reads ride the ordering path
	}

	fmt.Println("B10: read fast path — leased reads vs consensus-path reads (f=1, adaptive batching)")
	fmt.Printf("  %-8s %-10s %6s %10s %10s %10s %10s %10s %10s\n",
		"protocol", "mode", "reads", "reads/s", "rd p50", "rd p99", "writes/s", "wr p50", "wr p99")
	for _, p := range protocols {
		for _, m := range modes {
			for _, ratio := range ratios {
				pointOps := b10PointOps(ops)
				c, err := p.build(harness.SMRConfig{
					F: 1, Scheme: sig.HMAC, Batch: b10Batch, Window: b10Window,
					LeaseTerm:   m.lease,
					ReadWindow:  b10ReadWindow,
					PipeClients: b10Clients,
				})
				if err != nil {
					return err
				}
				res, err := mixedKVOps(c.Pipes, ratio, pointOps, m.name == "lease")
				c.Stop()
				if err != nil {
					return fmt.Errorf("%s/%s ratio=%.2f: %w", p.name, m.name, ratio, err)
				}
				readsPerSec := float64(len(res.readLats)) / res.elapsed.Seconds()
				writesPerSec := float64(len(res.writeLats)) / res.elapsed.Seconds()
				rp50, rp99 := percentileUS(res.readLats, 0.50), percentileUS(res.readLats, 0.99)
				wp50, wp99 := percentileUS(res.writeLats, 0.50), percentileUS(res.writeLats, 0.99)
				fmt.Printf("  %-8s %-10s %5.0f%% %10.0f %9.0fµs %9.0fµs %10.0f %9.0fµs %9.0fµs\n",
					p.name, m.name, ratio*100, readsPerSec, rp50, rp99, writesPerSec, wp50, wp99)
				rep.add(benchRow{
					Exp: "b10", Impl: p.name, N: p.n, F: 1,
					Batch: b10Batch, Window: b10Window, Ops: pointOps,
					Seconds:       res.elapsed.Seconds(),
					OpsPerSec:     readsPerSec + writesPerSec,
					MeanLatencyUS: meanUS(res.writeLats),
					P50LatencyUS:  wp50,
					P99LatencyUS:  wp99,
					Mode:          m.name,
					ReadRatio:     ratio,
					ReadsPerSec:   readsPerSec,
					ReadP50US:     rp50,
					ReadP99US:     rp99,
				})
			}
		}
	}
	return nil
}

// b10PointOps sizes one point: at least 4x the -ops flag, floored high
// enough that a point spans hundreds of milliseconds — the leased path
// moves >200k reads/s, and a sub-100ms sample is ramp-up, not steady state
// (bench-regress gates these rows, so they need to be reproducible).
func b10PointOps(ops int) int {
	if n := 4 * ops; n > 20000 {
		return n
	}
	return 20000
}

// mixedKVOps splits ops operations across the pipelined clients and drives
// each as fast as its windows admit: a ratio-sized fraction are GETs of
// pre-populated keys — via the read fast path when lease is true, via the
// ordering path otherwise — and the rest are PUTs. Returns merged latency
// samples per class; elapsed is the full fan-out wall time.
func mixedKVOps(kvs []*kvstore.PipeClient, ratio float64, ops int, lease bool) (b10Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var res b10Result
	// Pre-populate the key space so every read hits, then give the primary a
	// beat to establish its first lease before the measured window opens.
	for i := 0; i < b10Keys; i++ {
		if err := kvs[0].Put(ctx, fmt.Sprintf("key-%d", i), []byte("value")); err != nil {
			return res, err
		}
	}
	time.Sleep(50 * time.Millisecond)

	// Per-client, per-op latency slots, merged after the fan-out: locking on
	// the completion path would serialize the very throughput being
	// measured. Each client goroutine owns its own slots; unfilled slots
	// (errors) merge as misses.
	type clientRes struct {
		lats   []time.Duration // slot i: op i's latency; 0 = errored
		isRead []bool
		err    atomic.Value
	}
	keys := make([]string, b10Keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	var clients sync.WaitGroup
	perRes := make([]clientRes, len(kvs))
	reads := int(ratio * 100)
	perClient := ops / len(kvs)
	start := time.Now()
	for ci, kv := range kvs {
		clients.Add(1)
		cr := &perRes[ci]
		cr.lats = make([]time.Duration, perClient)
		cr.isRead = make([]bool, perClient)
		go func(cr *clientRes, kv *kvstore.PipeClient) {
			defer clients.Done()
			// Outstanding async calls await in submission order through a
			// bounded FIFO: one goroutine per client, not one per op — a
			// per-op awaiter goroutine costs more scheduler time than a
			// leased read itself and would measure the harness, not the
			// read path. FIFO await is safe because the submission windows
			// already bound how far completion can run ahead.
			type pend struct {
				i      int
				t0     time.Time
				result func() ([]byte, error)
			}
			const awaitDepth = 1024
			ring := make([]pend, awaitDepth)
			var submitted int
			await := func(pd pend) {
				if _, err := pd.result(); err != nil {
					cr.err.CompareAndSwap(nil, err)
					return
				}
				cr.lats[pd.i] = time.Since(pd.t0)
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
			for i := 0; i < perClient; i++ {
				key := keys[i%b10Keys]
				isRead := i%100 < reads
				cr.isRead[i] = isRead
				t0 := time.Now()
				var (
					result func() ([]byte, error)
					err    error
				)
				switch {
				case isRead && lease:
					var call *smr.ReadCall
					if call, err = kv.GetAsync(ctx, key); err == nil {
						result = call.Result
					}
				case isRead:
					var call *smr.Call
					if call, err = kv.GetOrderedAsync(ctx, key); err == nil {
						result = call.Result
					}
				default:
					var call *smr.Call
					if call, err = kv.PutAsync(ctx, key, []byte("value")); err == nil {
						result = call.Result
					}
				}
				if err != nil {
					cr.err.CompareAndSwap(nil, err)
					return
				}
				if submitted >= awaitDepth {
					await(ring[submitted%awaitDepth])
				}
				ring[submitted%awaitDepth] = pend{i, t0, result}
				submitted++
			}
		}(cr, kv)
	}
	clients.Wait()
	res.elapsed = time.Since(start)
	var firstErr error
	for ci := range perRes {
		cr := &perRes[ci]
		for i, lat := range cr.lats {
			if lat == 0 {
				continue
			}
			if cr.isRead[i] {
				res.readLats = append(res.readLats, lat)
			} else {
				res.writeLats = append(res.writeLats, lat)
			}
		}
		if err, ok := cr.err.Load().(error); ok && firstErr == nil {
			firstErr = err
		}
	}
	return res, firstErr
}
