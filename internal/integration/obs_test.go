package integration_test

// End-to-end metrics coverage: a MinBFT cluster over real TCP with every
// layer publishing into one shared obs.Registry — transport, replicas, the
// sig-cache fast path, and the pipelined client — then cross-layer
// invariants checked on the final snapshot. This is the wiring the
// cmd/minbft-kv -debug-addr flag exposes, verified in-process.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/minbft"
	"unidir/internal/obs"
	"unidir/internal/sig"
	"unidir/internal/smr"
	"unidir/internal/tcpnet"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

func TestMetricsEndToEnd(t *testing.T) {
	const (
		n, f = 3, 1
		ops  = 30
	)
	m, err := types.NewMembership(n, f)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	reg := obs.NewRegistry()

	// 4 TCP processes: 3 replicas + the pipelined client, replicas metered.
	cfg := make(tcpnet.Config, n+1)
	for i := 0; i <= n; i++ {
		cfg[types.ProcessID(i)] = "127.0.0.1:0"
	}
	nets := make([]*tcpnet.Net, n+1)
	for i := 0; i <= n; i++ {
		var netOpts []tcpnet.Option
		if i < n {
			netOpts = append(netOpts, tcpnet.WithMetrics(reg))
		}
		nt, err := tcpnet.New(types.ProcessID(i), cfg, netOpts...)
		if err != nil {
			t.Fatalf("tcpnet.New(%d): %v", i, err)
		}
		cfg[types.ProcessID(i)] = nt.Addr()
		nets[i] = nt
	}
	t.Cleanup(func() {
		for _, nt := range nets {
			_ = nt.Close()
		}
	})

	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(71)))
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	tu.Verifier.FastPath().AttachMetrics(reg)
	replicas := make([]*minbft.Replica, n)
	for i := 0; i < n; i++ {
		replicas[i], err = minbft.New(m, nets[i], tu.Devices[i], tu.Verifier, kvstore.New(),
			minbft.WithRequestTimeout(5*time.Second), minbft.WithEngineConfig(smr.EngineConfig{Metrics: reg}))
		if err != nil {
			t.Fatalf("minbft.New: %v", err)
		}
		defer replicas[i].Close()
	}
	pl, err := smr.NewPipeline(nets[n], m.All(), m.FPlusOne(), uint64(n), time.Second, 8,
		smr.WithPipelineRequestEncoder(minbft.EncodeRequestEnvelope), smr.WithPipelineMetrics(reg))
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	defer pl.Close()
	kv := kvstore.NewPipeClient(pl)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	calls := make([]*smr.Call, 0, ops)
	for i := 0; i < ops; i++ {
		call, err := kv.PutAsync(ctx, fmt.Sprintf("k%d", i), []byte{byte(i)})
		if err != nil {
			t.Fatalf("PutAsync %d: %v", i, err)
		}
		calls = append(calls, call)
	}
	for i, call := range calls {
		if _, err := call.Result(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	// Let the metrics settle: the f+1th reply completes the client before
	// the slowest replica finishes executing, so poll until every layer's
	// accounting closes. Batches may still execute after the last request
	// (a retransmission batched again), and a snapshot reads the counters
	// before the histograms, so the batch accounting has settled only once
	// two polls in a row agree on it.
	deadline := time.Now().Add(15 * time.Second)
	var snap obs.Snapshot
	var prevBatches [n][2]uint64
	for {
		snap = reg.Snapshot()
		settled := snap.Counter("sig_lookups_total") ==
			snap.Counter("sig_cache_hits_total")+
				snap.Counter("sig_cache_neg_hits_total")+snap.Counter("sig_verifications_total")
		done := true
		for i := 0; i < n; i++ {
			id := types.ProcessID(i)
			batches := [2]uint64{
				snap.Counter(obs.Name("minbft_batches_executed_total", "replica", id)),
				snap.Histograms[obs.Name("minbft_commit_latency_seconds", "replica", id)].Count,
			}
			if snap.Counter(obs.Name("minbft_requests_executed_total", "replica", id)) < ops || batches != prevBatches[i] {
				done = false
			}
			prevBatches[i] = batches
		}
		if settled && done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics did not settle: %+v", snap.Counters)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Consensus accounting, per replica. The cluster stayed in view 0, so
	// replica 0 is the only proposer and nobody can execute more batches
	// than it proposed.
	proposed := snap.Counter(obs.Name("minbft_batches_proposed_total", "replica", types.ProcessID(0)))
	if proposed == 0 {
		t.Fatal("primary proposed no batches")
	}
	for i := 0; i < n; i++ {
		executed := snap.Counter(obs.Name("minbft_batches_executed_total", "replica", types.ProcessID(i)))
		if executed == 0 {
			t.Fatalf("replica %d executed no batches", i)
		}
		if executed > proposed {
			t.Fatalf("replica %d executed %d batches > %d proposed", i, executed, proposed)
		}
		// Every executed batch was bound (timestamped) at accept, so the
		// commit-latency histogram must account for each one exactly once.
		hist, ok := snap.Histograms[obs.Name("minbft_commit_latency_seconds", "replica", types.ProcessID(i))]
		if !ok {
			t.Fatalf("replica %d has no commit-latency histogram", i)
		}
		if hist.Count != executed {
			t.Fatalf("replica %d: commit-latency count %d != executed batches %d", i, hist.Count, executed)
		}
	}
	if got := snap.HistogramCount("minbft_batch_size"); got == 0 {
		t.Fatal("batch-size histogram empty")
	}

	// Sig cache: real traffic, and with 3 replicas re-verifying the same
	// UI attestations the cache must have produced hits.
	if snap.Counter("sig_lookups_total") == 0 {
		t.Fatal("sig cache served no lookups")
	}
	if snap.Counter("sig_cache_hits_total") == 0 {
		t.Fatal("sig cache had no hits")
	}

	// Transport: replicas exchanged frames, and the totals balance in
	// aggregate (every metered tx lands on a metered rx except frames to
	// the unmetered client, so tx >= rx > 0 among replicas is too strong;
	// nonzero both ways is the robust check).
	if snap.CounterSum("tcpnet_tx_frames_total") == 0 {
		t.Fatal("no TCP frames sent")
	}
	if snap.CounterSum("tcpnet_rx_frames_total") == 0 {
		t.Fatal("no TCP frames received")
	}

	// Client pipeline: everything submitted completed, window drained.
	if got := snap.Counter(obs.Name("smr_requests_submitted_total", "client", n)); got != ops {
		t.Fatalf("pipeline submitted %d != %d", got, ops)
	}
	if got := snap.Counter(obs.Name("smr_requests_completed_total", "client", n)); got != ops {
		t.Fatalf("pipeline completed %d != %d", got, ops)
	}
	if got := snap.GaugeSum("smr_pipeline_depth"); got != 0 {
		t.Fatalf("pipeline depth %d after drain", got)
	}

	// The Prometheus export of the same registry must render every family.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"# TYPE minbft_batches_executed_total counter",
		"# TYPE minbft_commit_latency_seconds histogram",
		"minbft_commit_latency_seconds_bucket{replica=\"p0\",le=\"+Inf\"}",
		"# TYPE tcpnet_tx_frames_total counter",
		"sig_lookups_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
}
