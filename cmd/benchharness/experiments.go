package main

// The experiment drivers. IDs follow DESIGN.md's per-experiment index.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
	"unidir/internal/harness"

	"unidir/internal/core"
	"unidir/internal/kvstore"
	"unidir/internal/rounds"
	"unidir/internal/separation"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/smr"
	"unidir/internal/srb"
	"unidir/internal/trusted/swmr"
	"unidir/internal/trusted/trinc"
	"unidir/internal/trusted/trincfromsrb"
	"unidir/internal/types"
)

// --- F1: the implication matrix of Figure 1, checked live ---

// edge is one arrow of Figure 1 with a live witness check.
type edge struct {
	from, to string
	note     string
	check    func() error
}

func expF1() error {
	fmt.Println("F1: implication matrix (Figure 1) — every arrow backed by a live construction")
	edges := []edge{
		{
			from: "SWMR/ACL shared memory", to: "unidirectional rounds",
			note: "write-then-scan (Claim 3.2)",
			check: func() error {
				violations, err := separation.RunSWMRControl(harness.MustMembership(5, 2), 3, 1)
				if err != nil {
					return err
				}
				if len(violations) != 0 {
					return fmt.Errorf("%d violations", len(violations))
				}
				return nil
			},
		},
		{
			from: "unidirectional rounds", to: "sequenced reliable broadcast",
			note:  "Algorithm 1 (L1/L2 proofs), n >= 2t+1",
			check: func() error { return checkSRBDelivery(harness.BuildUniroundCluster, harness.MustMembership(5, 2)) },
		},
		{
			from: "trusted logs (TrInc)", to: "sequenced reliable broadcast",
			note:  "attested chain + relay",
			check: func() error { return checkSRBDelivery(harness.BuildTrincCluster, harness.MustMembership(4, 1)) },
		},
		{
			from: "sequenced reliable broadcast", to: "TrInc interface",
			note:  "Theorem 1",
			check: checkTrincFromSRB,
		},
		{
			from: "reliable broadcast (f=1, n>=3)", to: "unidirectional rounds",
			note:  "two-phase forwarding (Appendix corner case)",
			check: checkRBF1,
		},
		{
			from: "SRB / eventual delivery", to: "unidirectional rounds",
			note: "IMPOSSIBLE for n > 2f, f > 1 (separation, §4.1)",
			check: func() error {
				out, err := separation.RunScenario(harness.MustMembership(5, 2), 3, 10*time.Second)
				if err != nil {
					return err
				}
				if len(out.Violations) == 0 {
					return fmt.Errorf("expected a violation, found none")
				}
				return nil // the check passes when the violation is exhibited
			},
		},
		{
			from: "bidirectional (lock-step)", to: "unidirectional rounds",
			note:  "by definition",
			check: checkLockstepSubsumes,
		},
	}
	for _, e := range edges {
		status := "PASS"
		if err := e.check(); err != nil {
			status = fmt.Sprintf("FAIL (%v)", err)
		}
		fmt.Printf("  %-34s => %-30s  [%s]  %s\n", e.from, e.to, status, e.note)
	}
	return nil
}

func checkSRBDelivery(build func(types.Membership, sig.Scheme) (*harness.SRBCluster, error), m types.Membership) error {
	c, err := build(m, sig.HMAC)
	if err != nil {
		return err
	}
	defer c.Stop()
	if _, err := c.Nodes[0].Broadcast([]byte("f1-check")); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for _, n := range c.Nodes {
		d, err := n.Deliver(ctx)
		if err != nil {
			return fmt.Errorf("%v never delivered: %w", n.Self(), err)
		}
		if string(d.Data) != "f1-check" {
			return fmt.Errorf("%v delivered %q", n.Self(), d.Data)
		}
	}
	return nil
}

func checkTrincFromSRB() error {
	m := harness.MustMembership(4, 1)
	c, err := harness.BuildBrachaCluster(m, sig.HMAC) // TrInc from no hardware at all
	if err != nil {
		return err
	}
	defer c.Stop()
	trinkets := make([]*trincfromsrb.Trinket, m.N)
	for i, n := range c.Nodes {
		trinkets[i] = trincfromsrb.New(n)
		defer trinkets[i].Close()
	}
	att, err := trinkets[0].Attest(1, []byte("f1"))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for _, tk := range trinkets {
		if err := tk.WaitAttestation(ctx, att, 0); err != nil {
			return err
		}
	}
	return nil
}

func checkRBF1() error {
	m := harness.MustMembership(4, 1)
	net, err := simnet.New(m)
	if err != nil {
		return err
	}
	defer net.Close()
	rings, err := sig.NewKeyrings(m, sig.HMAC, rand.New(rand.NewSource(5)))
	if err != nil {
		return err
	}
	checker := core.NewUniChecker()
	systems := make([]rounds.System, m.N)
	for i := 0; i < m.N; i++ {
		systems[i], err = rounds.NewRBF1(net.Endpoint(types.ProcessID(i)), m, rings[i],
			rounds.WithRBF1Observer(checker))
		if err != nil {
			return err
		}
	}
	defer func() {
		for _, s := range systems {
			_ = s.Close()
		}
	}()
	if err := runOneRound(systems); err != nil {
		return err
	}
	for _, s := range systems {
		_ = s.Close()
	}
	if v := checker.Violations(m.All()); len(v) != 0 {
		return fmt.Errorf("violations: %v", v)
	}
	return nil
}

func checkLockstepSubsumes() error {
	m := harness.MustMembership(4, 1)
	net, err := simnet.New(m)
	if err != nil {
		return err
	}
	defer net.Close()
	checker := core.NewUniChecker()
	systems := make([]rounds.System, m.N)
	for i := 0; i < m.N; i++ {
		systems[i], err = rounds.NewLockstep(net.Endpoint(types.ProcessID(i)), m,
			rounds.WithLockstepObserver(checker))
		if err != nil {
			return err
		}
	}
	defer func() {
		for _, s := range systems {
			_ = s.Close()
		}
	}()
	if err := runOneRound(systems); err != nil {
		return err
	}
	for _, s := range systems {
		_ = s.Close()
	}
	if v := checker.Violations(m.All()); len(v) != 0 {
		return fmt.Errorf("violations: %v", v)
	}
	return nil
}

func runOneRound(systems []rounds.System) error {
	errCh := make(chan error, len(systems))
	for i, sys := range systems {
		go func(i int, sys rounds.System) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := sys.Send(1, []byte{byte(i)}); err != nil {
				errCh <- err
				return
			}
			_, err := sys.WaitEnd(ctx, 1)
			errCh <- err
		}(i, sys)
	}
	for range systems {
		if err := <-errCh; err != nil {
			return err
		}
	}
	return nil
}

// --- E1: the separation experiment ---

func expE1() error {
	m := harness.MustMembership(5, 2)
	res, err := separation.Run(m, 10*time.Second, 5)
	if err != nil {
		return err
	}
	fmt.Println("E1: separation (SRB cannot implement unidirectionality, n > 2f, f > 1)")
	fmt.Printf("  scenario 1: completed=%d violations=%d\n", len(res.Scenario1.Completed), len(res.Scenario1.Violations))
	fmt.Printf("  scenario 2: completed=%d violations=%d\n", len(res.Scenario2.Completed), len(res.Scenario2.Violations))
	fmt.Printf("  scenario 3: completed=%d violations=%d  <- the forced violation\n",
		len(res.Scenario3.Completed), len(res.Scenario3.Violations))
	fmt.Printf("  SWMR control: %d schedules, %d violations\n", res.SWMRSchedules, len(res.SWMRViolations))
	return nil
}

// --- B1: SRB broadcast cost across substrates ---

func expB1(msgs int, rep *report) error {
	fmt.Println("B1: SRB broadcast latency/throughput by substrate and n")
	fmt.Printf("  %-10s %4s %4s  %12s %14s\n", "impl", "n", "f", "msgs/s", "mean latency")
	type builder struct {
		name  string
		build func(types.Membership, sig.Scheme) (*harness.SRBCluster, error)
		nf    func(n int) (int, int)
	}
	builders := []builder{
		{"trincsrb", harness.BuildTrincCluster, func(n int) (int, int) { return n, (n - 1) / 2 }},
		{"a2msrb", harness.BuildA2MCluster, func(n int) (int, int) { return n, (n - 1) / 2 }},
		{"uniround", harness.BuildUniroundCluster, func(n int) (int, int) { return n, (n - 1) / 2 }},
		{"bracha", harness.BuildBrachaCluster, func(n int) (int, int) { return n, (n - 1) / 3 }},
	}
	for _, b := range builders {
		for _, n := range []int{4, 7, 10, 13} {
			nn, f := b.nf(n)
			m := harness.MustMembership(nn, f)
			c, err := b.build(m, sig.HMAC)
			if err != nil {
				return err
			}
			elapsed, err := timeSRBBroadcasts(c, msgs)
			c.Stop()
			if err != nil {
				return fmt.Errorf("%s n=%d: %w", b.name, n, err)
			}
			rate := float64(msgs) / elapsed.Seconds()
			fmt.Printf("  %-10s %4d %4d  %12.0f %14s\n",
				b.name, nn, f, rate, (elapsed / time.Duration(msgs)).Round(time.Microsecond))
			rep.add(benchRow{
				Exp: "b1", Impl: b.name, N: nn, F: f, Ops: msgs,
				Seconds:       elapsed.Seconds(),
				OpsPerSec:     rate,
				MeanLatencyUS: float64(elapsed.Microseconds()) / float64(msgs),
			})
		}
	}
	return nil
}

// timeSRBBroadcasts measures broadcasting msgs messages from node 0 until
// every node delivers all of them.
func timeSRBBroadcasts(c *harness.SRBCluster, msgs int) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	start := time.Now()
	errCh := make(chan error, len(c.Nodes))
	for _, n := range c.Nodes {
		go func(n srb.Node) {
			for i := 0; i < msgs; i++ {
				if _, err := n.Deliver(ctx); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(n)
	}
	payload := make([]byte, 128)
	for i := 0; i < msgs; i++ {
		if _, err := c.Nodes[0].Broadcast(payload); err != nil {
			return 0, err
		}
	}
	for range c.Nodes {
		if err := <-errCh; err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// --- B2: SMR comparison (MinBFT vs PBFT) ---

func expB2(ops int, rep *report) error {
	type protocol struct {
		name   string
		build  func(harness.SMRConfig) (*harness.SMRCluster, error)
		nOf    func(int) int
		phases int
	}
	protocols := []protocol{
		{"minbft", harness.BuildMinBFTCfg, func(f int) int { return 2*f + 1 }, 2},
		{"pbft", harness.BuildPBFTCfg, func(f int) int { return 3*f + 1 }, 3},
	}

	fmt.Println("B2: BFT SMR — MinBFT (trusted hardware, n=2f+1) vs PBFT (n=3f+1)")
	fmt.Println("  closed-loop client (one request outstanding, batch=1):")
	fmt.Printf("  %-8s %3s %10s %10s  %12s %14s\n", "protocol", "f", "replicas", "phases", "ops/s", "mean latency")
	for _, f := range []int{1, 2, 3} {
		for _, p := range protocols {
			// Batch: 1 pins the seed behavior: a closed-loop client never
			// gives the primary more than one request to pack anyway.
			c, err := p.build(harness.SMRConfig{F: f, Scheme: sig.HMAC, Batch: 1})
			if err != nil {
				return err
			}
			elapsed, lats, err := timeKVOps(c.KV, ops)
			c.Stop()
			if err != nil {
				return fmt.Errorf("%s f=%d: %w", p.name, f, err)
			}
			rate := float64(ops) / elapsed.Seconds()
			fmt.Printf("  %-8s %3d %10d %10d  %12.0f %14s\n",
				p.name, f, p.nOf(f), p.phases, rate, (elapsed / time.Duration(ops)).Round(time.Microsecond))
			rep.add(benchRow{
				Exp: "b2", Impl: p.name, N: p.nOf(f), F: f, Phases: p.phases, Batch: 1, Ops: ops,
				Seconds:       elapsed.Seconds(),
				OpsPerSec:     rate,
				MeanLatencyUS: float64(elapsed.Microseconds()) / float64(ops),
				P50LatencyUS:  percentileUS(lats, 0.50),
				P99LatencyUS:  percentileUS(lats, 0.99),
			})
		}
	}

	const window = 32
	fmt.Printf("  pipelined client (window=%d), batched vs unbatched consensus, f=1:\n", window)
	fmt.Printf("  %-8s %6s  %12s %14s\n", "protocol", "batch", "ops/s", "mean latency")
	for _, p := range protocols {
		for _, batch := range []int{1, 64} {
			c, err := p.build(harness.SMRConfig{F: 1, Scheme: sig.HMAC, Batch: batch, Window: window})
			if err != nil {
				return err
			}
			elapsed, lats, err := timeKVOpsPipelined(c.Pipe, ops)
			c.Stop()
			if err != nil {
				return fmt.Errorf("%s batch=%d: %w", p.name, batch, err)
			}
			rate := float64(ops) / elapsed.Seconds()
			fmt.Printf("  %-8s %6d  %12.0f %14s\n",
				p.name, batch, rate, (elapsed / time.Duration(ops)).Round(time.Microsecond))
			rep.add(benchRow{
				Exp: "b2", Impl: p.name + "-pipelined", N: p.nOf(1), F: 1, Phases: p.phases,
				Batch: batch, Window: window, Ops: ops,
				Seconds:       elapsed.Seconds(),
				OpsPerSec:     rate,
				MeanLatencyUS: float64(elapsed.Microseconds()) / float64(ops),
				P50LatencyUS:  percentileUS(lats, 0.50),
				P99LatencyUS:  percentileUS(lats, 0.99),
			})
		}
	}
	return nil
}

func timeKVOps(kv *kvstore.Client, ops int) (time.Duration, []time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	lats := make([]time.Duration, 0, ops)
	start := time.Now()
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		if err := kv.Put(ctx, fmt.Sprintf("key-%d", i%64), []byte("value")); err != nil {
			return 0, nil, err
		}
		lats = append(lats, time.Since(t0))
	}
	return time.Since(start), lats, nil
}

// timeKVOpsPipelined issues ops puts through the pipelined client, keeping
// up to its window in flight, and waits for every reply. The returned
// latencies are submit-to-completion (they include window queueing).
func timeKVOpsPipelined(kv *kvstore.PipeClient, ops int) (time.Duration, []time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	start := time.Now()
	calls := make([]*smr.Call, 0, ops)
	lats := make([]time.Duration, ops)
	var wg sync.WaitGroup
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		call, err := kv.PutAsync(ctx, fmt.Sprintf("key-%d", i%64), []byte("value"))
		if err != nil {
			return 0, nil, err
		}
		calls = append(calls, call)
		wg.Add(1)
		go func(i int, call *smr.Call, t0 time.Time) {
			defer wg.Done()
			<-call.Done()
			lats[i] = time.Since(t0)
		}(i, call, t0)
	}
	for _, call := range calls {
		if _, err := call.Result(); err != nil {
			return 0, nil, err
		}
	}
	wg.Wait()
	return time.Since(start), lats, nil
}

// percentile returns the q-quantile (0 < q <= 1) of lats by nearest-rank,
// in microseconds. Zero when empty.
func percentileUS(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Microseconds())
}

// --- B3: trusted hardware microbenchmarks ---

func expB3(iters int) error {
	fmt.Println("B3: trusted hardware and signature microbenchmarks")
	m := harness.MustMembership(4, 1)
	msg := make([]byte, 128)

	for _, scheme := range []sig.Scheme{sig.Ed25519, sig.HMAC} {
		rings, err := sig.NewKeyrings(m, scheme, rand.New(rand.NewSource(6)))
		if err != nil {
			return err
		}
		start := time.Now()
		var s []byte
		for i := 0; i < iters; i++ {
			s = rings[0].Sign(msg)
		}
		signTime := time.Since(start) / time.Duration(iters)
		start = time.Now()
		for i := 0; i < iters; i++ {
			if err := rings[1].Verify(0, msg, s); err != nil {
				return err
			}
		}
		verifyTime := time.Since(start) / time.Duration(iters)
		fmt.Printf("  %-22s sign %10s   verify %10s\n", scheme, signTime, verifyTime)
	}

	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(7)))
	if err != nil {
		return err
	}
	start := time.Now()
	var att trinc.Attestation
	for i := 0; i < iters; i++ {
		att, err = tu.Devices[0].Attest(0, types.SeqNum(i+1), msg)
		if err != nil {
			return err
		}
	}
	attestTime := time.Since(start) / time.Duration(iters)
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := tu.Verifier.CheckMessage(att, msg); err != nil {
			return err
		}
	}
	checkTime := time.Since(start) / time.Duration(iters)
	fmt.Printf("  %-22s attest %8s   check %11s\n", "trinc (hmac)", attestTime, checkTime)

	store, err := swmr.NewStore(m)
	if err != nil {
		return err
	}
	mem := swmr.NewLocal(store, 0)
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := mem.Write(msg); err != nil {
			return err
		}
	}
	writeTime := time.Since(start) / time.Duration(iters)
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, _, err := mem.Read(0); err != nil {
			return err
		}
	}
	readTime := time.Since(start) / time.Duration(iters)
	fmt.Printf("  %-22s write %9s   read %12s\n", "swmr register", writeTime, readTime)
	return nil
}

// --- B4: round-system ablation ---

func expB4(roundsN int) error {
	fmt.Println("B4: cost of one round by round system (n=5)")
	m := harness.MustMembership(5, 2)

	type sysBuilder struct {
		name  string
		build func() ([]rounds.System, func(), error)
	}
	builders := []sysBuilder{
		{"swmr (unidirectional)", func() ([]rounds.System, func(), error) {
			store, err := swmr.NewStore(m)
			if err != nil {
				return nil, nil, err
			}
			systems := make([]rounds.System, m.N)
			for i := 0; i < m.N; i++ {
				systems[i], err = rounds.NewSWMR(swmr.NewLocal(store, types.ProcessID(i)), m)
				if err != nil {
					return nil, nil, err
				}
			}
			return systems, func() {}, nil
		}},
		{"async (zero-directional)", func() ([]rounds.System, func(), error) {
			net, err := simnet.New(m)
			if err != nil {
				return nil, nil, err
			}
			systems := make([]rounds.System, m.N)
			for i := 0; i < m.N; i++ {
				systems[i], err = rounds.NewAsync(net.Endpoint(types.ProcessID(i)), m)
				if err != nil {
					return nil, nil, err
				}
			}
			return systems, net.Close, nil
		}},
		{"lockstep (bidirectional)", func() ([]rounds.System, func(), error) {
			net, err := simnet.New(m)
			if err != nil {
				return nil, nil, err
			}
			systems := make([]rounds.System, m.N)
			for i := 0; i < m.N; i++ {
				systems[i], err = rounds.NewLockstep(net.Endpoint(types.ProcessID(i)), m)
				if err != nil {
					return nil, nil, err
				}
			}
			return systems, net.Close, nil
		}},
	}
	for _, b := range builders {
		systems, cleanup, err := b.build()
		if err != nil {
			return err
		}
		start := time.Now()
		errCh := make(chan error, len(systems))
		for i, sys := range systems {
			go func(i int, sys rounds.System) {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				for r := types.Round(1); r <= types.Round(roundsN); r++ {
					if err := sys.Send(r, []byte{byte(i)}); err != nil {
						errCh <- err
						return
					}
					if _, err := sys.WaitEnd(ctx, r); err != nil {
						errCh <- err
						return
					}
				}
				errCh <- nil
			}(i, sys)
		}
		var firstErr error
		for range systems {
			if err := <-errCh; err != nil && firstErr == nil {
				firstErr = err
			}
		}
		elapsed := time.Since(start)
		for _, sys := range systems {
			_ = sys.Close()
		}
		cleanup()
		if firstErr != nil {
			return fmt.Errorf("%s: %w", b.name, firstErr)
		}
		fmt.Printf("  %-26s %8.0f rounds/s  (%s per round, all-process barrierless)\n",
			b.name, float64(roundsN)/elapsed.Seconds(), (elapsed / time.Duration(roundsN)).Round(time.Microsecond))
	}
	return nil
}
