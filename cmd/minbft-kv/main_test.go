package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"unidir/internal/cluster"
	"unidir/internal/kvstore"
	"unidir/internal/minbft"
	"unidir/internal/obs"
	"unidir/internal/obs/tracing"
	"unidir/internal/sig"
	"unidir/internal/smr"
	"unidir/internal/tcpnet"
	"unidir/internal/transport"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

// TestHealthAndReadinessEndpoints stands up a live MinBFT cluster over TCP
// with the same debug-handler wiring runReplica uses and checks /healthz,
// /readyz (backed by Replica.Ready), and /debug/spans against it.
func TestHealthAndReadinessEndpoints(t *testing.T) {
	m, err := types.NewMembership(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	universe, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}

	// Bind every listener on :0 first, then share the final addresses (the
	// tcpnet test idiom; 4 endpoints: 3 replicas + 1 client).
	cfg := make(tcpnet.Config, 4)
	for i := 0; i < 4; i++ {
		cfg[types.ProcessID(i)] = "127.0.0.1:0"
	}
	nets := make([]*tcpnet.Net, 4)
	for i := 0; i < 4; i++ {
		nt, err := tcpnet.New(types.ProcessID(i), cfg)
		if err != nil {
			t.Fatalf("tcpnet.New(%d): %v", i, err)
		}
		cfg[types.ProcessID(i)] = nt.Addr()
		nets[i] = nt
	}

	spans := tracing.NewSpanBuffer(256)
	reps := make([]*minbft.Replica, 3)
	for i := 0; i < 3; i++ {
		opts := []minbft.Option{minbft.WithRequestTimeout(5 * time.Second)}
		if i == 0 {
			opts = append(opts, minbft.WithEngineConfig(smr.EngineConfig{Tracer: tracing.NewTracer("r0", 1, spans)}))
		}
		rep, err := minbft.New(m, nets[i], universe.Devices[i], universe.Verifier, kvstore.New(), opts...)
		if err != nil {
			t.Fatalf("minbft.New(%d): %v", i, err)
		}
		reps[i] = rep
		defer rep.Close()
	}

	srv := httptest.NewServer(obs.Handler(obs.NewRegistry(),
		obs.WithSpans(spans), obs.WithReadiness(reps[0].Ready)))
	defer srv.Close()
	status := func(path string) int {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status("/healthz"); got != 200 {
		t.Fatalf("/healthz = %d, want 200", got)
	}
	// A freshly started replica is view-active with no state transfer
	// pending: ready.
	if got := status("/readyz"); got != 200 {
		t.Fatalf("/readyz = %d, want 200", got)
	}

	base, err := smr.NewClient(nets[3], m.All(), m.FPlusOne(), 3, 200*time.Millisecond,
		smr.WithRequestEncoder(minbft.EncodeRequestEnvelope))
	if err != nil {
		t.Fatal(err)
	}
	kv := kvstore.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("put: %v", err)
		}
	}

	// The cluster still serves and still reports ready after real traffic.
	if got := status("/readyz"); got != 200 {
		t.Fatalf("/readyz after traffic = %d, want 200", got)
	}
	// The closed-loop smr.Client does not propagate trace contexts (only
	// the pipeline samples), so the replica-side buffer stays empty — but
	// the endpoint must serve valid JSON regardless.
	if got := status("/debug/spans"); got != 200 {
		t.Fatalf("/debug/spans = %d, want 200", got)
	}
}

// TestClusterOverTCP is the end-to-end over real TCP: a MinBFT group (n=3,
// f=1) on a tcpnet mesh, a pipelined client writing and then reading back
// through the leased fast path.
func TestClusterOverTCP(t *testing.T) {
	const n, f = 3, 1
	m, err := types.NewMembership(n, f)
	if err != nil {
		t.Fatal(err)
	}

	// The tcpnet test idiom: bind every listener on :0 and publish the
	// final address back into the config map the whole group dials through.
	cfg := make(tcpnet.Config, n+1)
	for i := 0; i <= n; i++ {
		cfg[types.ProcessID(i)] = "127.0.0.1:0"
	}
	nets := make([]*tcpnet.Net, n+1)
	for i := range nets {
		nt, err := tcpnet.New(types.ProcessID(i), cfg)
		if err != nil {
			t.Fatalf("tcpnet.New(%d): %v", i, err)
		}
		defer nt.Close()
		cfg[types.ProcessID(i)] = nt.Addr()
		nets[i] = nt
	}

	spec := cluster.Spec{Protocol: cluster.MinBFT, F: f, Scheme: sig.HMAC, Timeout: 5 * time.Second, Seed: 7}
	group, err := cluster.NewGroup(spec, m,
		func(id types.ProcessID) transport.Transport { return nets[id] },
		func() smr.StateMachine { return kvstore.New() }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer group.Close()

	enc := spec.Encoders()
	reg := obs.NewRegistry()
	pl, err := smr.NewPipeline(nets[n], m.All(), m.FPlusOne(), uint64(n), time.Second, 16,
		smr.WithPipelineRequestEncoder(enc.Request),
		smr.WithPipelineReadEncoder(enc.Read),
		smr.WithPipelineReadBatchEncoder(enc.ReadBatch),
		smr.WithReadQuorum(spec.ReadQuorum(m)),
		smr.WithPipelineMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	kv := kvstore.NewPipeClient(pl)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := kv.Put(ctx, key, []byte("v-"+key)); err != nil {
			t.Fatalf("put %q: %v", key, err)
		}
	}
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("key-%d", i)
		got, err := kv.GetFast(ctx, key) // leased fast path
		if err != nil {
			t.Fatalf("rget %q: %v", key, err)
		}
		if string(got) != "v-"+key {
			t.Fatalf("rget %q = %q", key, got)
		}
	}
	if reg.Snapshot().CounterSum("smr_leased_reads_total") == 0 {
		t.Fatal("no read was answered under the leader's lease")
	}
}
