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
	"unidir/internal/shard"
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

// TestShardConfigLayout pins the shard-major config projection: group g's
// local space is its own n replicas at 0..n-1 plus each client's group-g
// endpoint at n+j.
func TestShardConfigLayout(t *testing.T) {
	addrs := []string{"r0", "r1", "r2", "r3", "r4", "r5", "c0g0", "c0g1", "c1g0", "c1g1"}
	const n, shards = 3, 2
	g0 := shardConfig(addrs, n, shards, 0)
	g1 := shardConfig(addrs, n, shards, 1)
	want0 := tcpnet.Config{0: "r0", 1: "r1", 2: "r2", 3: "c0g0", 4: "c1g0"}
	want1 := tcpnet.Config{0: "r3", 1: "r4", 2: "r5", 3: "c0g1", 4: "c1g1"}
	for id, addr := range want0 {
		if g0[id] != addr {
			t.Errorf("group 0 local %v = %q, want %q", id, g0[id], addr)
		}
	}
	for id, addr := range want1 {
		if g1[id] != addr {
			t.Errorf("group 1 local %v = %q, want %q", id, g1[id], addr)
		}
	}
	if len(g0) != 5 || len(g1) != 5 {
		t.Fatalf("config sizes = %d, %d, want 5", len(g0), len(g1))
	}
}

// TestShardedClusterOverTCP is the sharded end-to-end over real TCP: two
// MinBFT groups (n=3, f=1 each) on their own tcpnet meshes, a sharded
// client routing writes and leased fast-path reads across both.
func TestShardedClusterOverTCP(t *testing.T) {
	const n, f, shards = 3, 1, 2
	m, err := types.NewMembership(n, f)
	if err != nil {
		t.Fatal(err)
	}

	// Per-group shared config maps, the tcpnet test idiom: bind every
	// listener on :0 and publish the final address back into the map the
	// whole group dials through.
	groupCfg := make([]tcpnet.Config, shards)
	repNets := make([][]*tcpnet.Net, shards)
	clientNets := make([]*tcpnet.Net, shards)
	for g := 0; g < shards; g++ {
		groupCfg[g] = make(tcpnet.Config, n+1)
		for i := 0; i <= n; i++ {
			groupCfg[g][types.ProcessID(i)] = "127.0.0.1:0"
		}
		repNets[g] = make([]*tcpnet.Net, n)
		for i := 0; i < n; i++ {
			nt, err := tcpnet.New(types.ProcessID(i), groupCfg[g])
			if err != nil {
				t.Fatalf("group %d replica %d: %v", g, i, err)
			}
			defer nt.Close()
			groupCfg[g][types.ProcessID(i)] = nt.Addr()
			repNets[g][i] = nt
		}
		nt, err := tcpnet.New(types.ProcessID(n), groupCfg[g])
		if err != nil {
			t.Fatalf("group %d client: %v", g, err)
		}
		defer nt.Close()
		groupCfg[g][types.ProcessID(n)] = nt.Addr()
		clientNets[g] = nt
	}

	pipes := make([]*kvstore.PipeClient, shards)
	for g := 0; g < shards; g++ {
		spec := cluster.Spec{
			Protocol: cluster.MinBFT,
			F:        f,
			Scheme:   sig.HMAC,
			Timeout:  5 * time.Second,
			Seed:     int64(7 + g), // distinct trusted universes per group
		}
		nets := repNets[g]
		group, err := cluster.NewGroup(spec, m,
			func(id types.ProcessID) transport.Transport { return nets[id] },
			func() smr.StateMachine { return kvstore.New() }, nil)
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		defer group.Close()

		enc := spec.Encoders()
		pl, err := smr.NewPipeline(clientNets[g], m.All(), m.FPlusOne(), uint64(n),
			time.Second, 16,
			smr.WithPipelineRequestEncoder(enc.Request),
			smr.WithPipelineReadEncoder(enc.Read),
			smr.WithPipelineReadBatchEncoder(enc.ReadBatch),
			smr.WithReadQuorum(spec.ReadQuorum(m)))
		if err != nil {
			t.Fatalf("group %d pipeline: %v", g, err)
		}
		defer pl.Close()
		pipes[g] = kvstore.NewPipeClient(pl)
	}

	view, err := shard.NewUniformView(1, shards)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := shard.NewClient(shard.NewRouter(view), pipes)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Pick keys so both groups see traffic (sequential key names may all
	// hash into one range), then write and leased-read through the router.
	var keys []string
	perGroup := map[int]int{}
	for i := 0; len(keys) < 24; i++ {
		key := fmt.Sprintf("key-%d", i)
		if g := sc.Group(key); perGroup[g] < 12 {
			perGroup[g]++
			keys = append(keys, key)
		}
		if i > 1<<16 {
			t.Fatalf("could not spread 24 keys over %d groups: %v", shards, perGroup)
		}
	}
	for _, key := range keys {
		if err := sc.Put(ctx, key, []byte("v-"+key)); err != nil {
			t.Fatalf("put %q: %v", key, err)
		}
	}
	for _, key := range keys {
		got, err := sc.RGet(ctx, key) // leased fast path, per group
		if err != nil {
			t.Fatalf("rget %q: %v", key, err)
		}
		if string(got) != "v-"+key {
			t.Fatalf("rget %q = %q", key, got)
		}
	}
}
