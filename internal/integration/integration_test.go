// Package integration_test wires full stacks end-to-end across substrate
// boundaries: the SMR protocols over real TCP, and SRB over the TCP
// transport — the configurations the cmd/ demos use, verified in-process.
package integration_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/minbft"
	"unidir/internal/sig"
	"unidir/internal/smr"
	"unidir/internal/srb"
	"unidir/internal/srb/trincsrb"
	"unidir/internal/tcpnet"
	"unidir/internal/transport"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

// newTCPCluster binds count endpoints on loopback with dynamic ports.
func newTCPCluster(t *testing.T, count int) []*tcpnet.Net {
	t.Helper()
	cfg := make(tcpnet.Config, count)
	for i := 0; i < count; i++ {
		cfg[types.ProcessID(i)] = "127.0.0.1:0"
	}
	nets := make([]*tcpnet.Net, count)
	for i := 0; i < count; i++ {
		nt, err := tcpnet.New(types.ProcessID(i), cfg)
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
	return nets
}

func TestMinBFTOverTCP(t *testing.T) {
	const n, f = 3, 1
	m, err := types.NewMembership(n, f)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	nets := newTCPCluster(t, n+1) // +1 client
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(61)))
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	logs := make([]*smr.ExecutionLog, n)
	replicas := make([]*minbft.Replica, n)
	for i := 0; i < n; i++ {
		logs[i] = &smr.ExecutionLog{}
		replicas[i], err = minbft.New(m, nets[i], tu.Devices[i], tu.Verifier, kvstore.New(),
			minbft.WithRequestTimeout(2*time.Second), minbft.WithEngineConfig(smr.EngineConfig{ExecutionLog: logs[i]}))
		if err != nil {
			t.Fatalf("minbft.New: %v", err)
		}
		defer replicas[i].Close()
	}
	base, err := smr.NewClient(nets[n], m.All(), m.FPlusOne(), uint64(n), 200*time.Millisecond,
		smr.WithRequestEncoder(minbft.EncodeRequestEnvelope))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	kv := kvstore.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < 5; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("tcp-%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("Put over TCP: %v", err)
		}
	}
	v, err := kv.Get(ctx, "tcp-3")
	if err != nil || v[0] != 3 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	// Wait for all replicas to catch up, then check log consistency.
	deadline := time.Now().Add(10 * time.Second)
	for _, log := range logs {
		for len(log.Snapshot()) < 6 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
	}
	for i := 1; i < n; i++ {
		if err := smr.CheckPrefix(logs[0].Snapshot(), logs[i].Snapshot()); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
}

func TestMinBFTViewChangeOverTCP(t *testing.T) {
	const n, f = 3, 1
	m, err := types.NewMembership(n, f)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	nets := newTCPCluster(t, n+1)
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(62)))
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	replicas := make([]*minbft.Replica, n)
	for i := 0; i < n; i++ {
		replicas[i], err = minbft.New(m, nets[i], tu.Devices[i], tu.Verifier, kvstore.New(),
			minbft.WithRequestTimeout(200*time.Millisecond))
		if err != nil {
			t.Fatalf("minbft.New: %v", err)
		}
	}
	defer func() {
		for _, r := range replicas {
			if r != nil {
				_ = r.Close()
			}
		}
	}()
	base, err := smr.NewClient(nets[n], m.All(), m.FPlusOne(), uint64(n), 200*time.Millisecond,
		smr.WithRequestEncoder(minbft.EncodeRequestEnvelope))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	kv := kvstore.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()

	if err := kv.Put(ctx, "before", []byte("crash")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	_ = replicas[0].Close() // kill the primary's TCP endpoint and goroutines
	replicas[0] = nil
	if err := kv.Put(ctx, "after", []byte("recovery")); err != nil {
		t.Fatalf("Put after primary crash over TCP: %v", err)
	}
	v, err := kv.Get(ctx, "before")
	if err != nil || string(v) != "crash" {
		t.Fatalf("pre-crash state lost: %q, %v", v, err)
	}
}

func TestTrincSRBOverTCP(t *testing.T) {
	const n, f = 4, 1
	m, err := types.NewMembership(n, f)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	nets := newTCPCluster(t, n)
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(63)))
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	rec := srb.NewRecorder()
	nodes := make([]srb.Node, n)
	for i := 0; i < n; i++ {
		nodes[i], err = trincsrb.New(m, nets[i], tu.Devices[i], tu.Verifier)
		if err != nil {
			t.Fatalf("trincsrb.New: %v", err)
		}
		defer nodes[i].Close()
	}
	const msgs = 4
	for _, node := range nodes {
		for j := 0; j < msgs; j++ {
			data := []byte(fmt.Sprintf("%v-%d", node.Self(), j))
			seq, err := node.Broadcast(data)
			if err != nil {
				t.Fatalf("Broadcast: %v", err)
			}
			rec.Broadcast(node.Self(), seq, data)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, node := range nodes {
		for j := 0; j < n*msgs; j++ {
			d, err := node.Deliver(ctx)
			if err != nil {
				t.Fatalf("%v deliver %d: %v", node.Self(), j, err)
			}
			rec.Deliver(node.Self(), d)
		}
	}
	if err := rec.CheckAll(m.All()); err != nil {
		t.Fatal(err)
	}
}

func TestMuxedProtocolsShareOneTCPEndpoint(t *testing.T) {
	// Two independent SRB node sets share each process's single TCP
	// endpoint through the transport mux — the composition pattern a real
	// deployment running several protocol instances would use.
	const n = 4
	m, err := types.NewMembership(n, 1)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	nets := newTCPCluster(t, n)
	muxes := make([]*transport.Mux, n)
	for i := range nets {
		muxes[i] = transport.NewMux(nets[i])
		defer muxes[i].Close()
	}
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(64)))
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	mkNodes := func(tag byte) []srb.Node {
		nodes := make([]srb.Node, n)
		for i := 0; i < n; i++ {
			var err error
			nodes[i], err = trincsrb.New(m, muxes[i].Channel(tag), tu.Devices[i], tu.Verifier)
			if err != nil {
				t.Fatalf("trincsrb.New: %v", err)
			}
		}
		return nodes
	}
	// Separate trinket counters are required per instance set; the trinc
	// protocol uses counter 0, so two sets would collide on one trinket.
	// Use distinct universes per channel instead (as two deployments would).
	tu2, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(65)))
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	nodesA := mkNodes('A')
	nodesB := make([]srb.Node, n)
	for i := 0; i < n; i++ {
		nodesB[i], err = trincsrb.New(m, muxes[i].Channel('B'), tu2.Devices[i], tu2.Verifier)
		if err != nil {
			t.Fatalf("trincsrb.New: %v", err)
		}
	}
	defer func() {
		for i := 0; i < n; i++ {
			_ = nodesA[i].Close()
			_ = nodesB[i].Close()
		}
	}()

	if _, err := nodesA[0].Broadcast([]byte("on-A")); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	if _, err := nodesB[1].Broadcast([]byte("on-B")); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		da, err := nodesA[i].Deliver(ctx)
		if err != nil || string(da.Data) != "on-A" {
			t.Fatalf("node A%d: %+v, %v", i, da, err)
		}
		db, err := nodesB[i].Deliver(ctx)
		if err != nil || string(db.Data) != "on-B" {
			t.Fatalf("node B%d: %+v, %v", i, db, err)
		}
	}
}

func TestPipelinedClientBatchedMinBFTOverTCP(t *testing.T) {
	// The full amortized hot path end-to-end: pipelined client keeping a
	// window of puts in flight, batching primary packing them into shared
	// prepares, coalescing TCP sender flushing whole bursts per syscall.
	const n, f = 3, 1
	m, err := types.NewMembership(n, f)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	nets := newTCPCluster(t, n+1) // +1 pipelined client
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(66)))
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	logs := make([]*smr.ExecutionLog, n)
	replicas := make([]*minbft.Replica, n)
	for i := 0; i < n; i++ {
		logs[i] = &smr.ExecutionLog{}
		replicas[i], err = minbft.New(m, nets[i], tu.Devices[i], tu.Verifier, kvstore.New(),
			minbft.WithRequestTimeout(2*time.Second),
			minbft.WithEngineConfig(smr.EngineConfig{BatchSize: 8, ExecutionLog: logs[i]}))
		if err != nil {
			t.Fatalf("minbft.New: %v", err)
		}
		defer replicas[i].Close()
	}
	const window = 8
	pl, err := smr.NewPipeline(nets[n], m.All(), m.FPlusOne(), uint64(n),
		300*time.Millisecond, window, smr.WithPipelineRequestEncoder(minbft.EncodeRequestEnvelope))
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	defer pl.Close()
	kv := kvstore.NewPipeClient(pl)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const ops = 40
	calls := make([]*smr.Call, 0, ops)
	for i := 0; i < ops; i++ {
		call, err := kv.PutAsync(ctx, fmt.Sprintf("pipe-%d", i), []byte{byte(i)})
		if err != nil {
			t.Fatalf("PutAsync(%d): %v", i, err)
		}
		calls = append(calls, call)
	}
	for i, call := range calls {
		if _, err := call.Result(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	v, err := kv.Get(ctx, "pipe-17")
	if err != nil || len(v) != 1 || v[0] != 17 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	// ops puts + 1 get, all ops committed on every replica with identical order.
	deadline := time.Now().Add(10 * time.Second)
	for _, log := range logs {
		for len(log.Snapshot()) < ops+1 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
	}
	for i := 0; i < n; i++ {
		if got := len(logs[i].Snapshot()); got != ops+1 {
			t.Fatalf("replica %d executed %d commands, want %d", i, got, ops+1)
		}
	}
	for i := 1; i < n; i++ {
		if err := smr.CheckPrefix(logs[0].Snapshot(), logs[i].Snapshot()); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
}
