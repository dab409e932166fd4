package minbft_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/minbft"
	"unidir/internal/obs"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/smr"
	"unidir/internal/transport"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

// harness is a running MinBFT cluster over simnet with client endpoints.
type harness struct {
	t        *testing.T
	m        types.Membership // replica membership
	net      *simnet.Network  // replicas 0..n-1, clients n..n+clients-1
	replicas []*minbft.Replica
	stores   []*kvstore.Store
	logs     []*smr.ExecutionLog
	metrics  *obs.Registry // shared by every replica
}

func newHarness(t *testing.T, n, f, clients int, timeout time.Duration, cfg ...smr.EngineConfig) *harness {
	t.Helper()
	return newHarnessOn(t, n, f, clients, timeout, nil, cfg...)
}

// newHarnessOn is newHarness with each replica's endpoint passed through
// wrap first (nil: used as is), for tests that fake a transport capability.
func newHarnessOn(t *testing.T, n, f, clients int, timeout time.Duration,
	wrap func(i int, tr transport.Transport) transport.Transport, cfg ...smr.EngineConfig) *harness {
	t.Helper()
	m, err := types.NewMembership(n, f)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	netM, err := types.NewMembership(n+clients, f)
	if err != nil {
		t.Fatalf("net membership: %v", err)
	}
	net, err := simnet.New(netM)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatalf("trinc universe: %v", err)
	}
	h := &harness{
		t:        t,
		m:        m,
		net:      net,
		replicas: make([]*minbft.Replica, n),
		stores:   make([]*kvstore.Store, n),
		logs:     make([]*smr.ExecutionLog, n),
		metrics:  obs.NewRegistry(),
	}
	tu.Verifier.FastPath().AttachMetrics(h.metrics)
	for i := 0; i < n; i++ {
		h.stores[i] = kvstore.New()
		h.logs[i] = &smr.ExecutionLog{}
		var c smr.EngineConfig
		if len(cfg) > 0 {
			c = cfg[0]
		}
		c.ExecutionLog, c.Metrics = h.logs[i], h.metrics
		var tr transport.Transport = net.Endpoint(types.ProcessID(i))
		if wrap != nil {
			tr = wrap(i, tr)
		}
		rep, err := minbft.New(m, tr, tu.Devices[i], tu.Verifier, h.stores[i],
			minbft.WithRequestTimeout(timeout), minbft.WithEngineConfig(c))
		if err != nil {
			t.Fatalf("minbft.New: %v", err)
		}
		h.replicas[i] = rep
	}
	t.Cleanup(func() {
		for _, r := range h.replicas {
			if r != nil {
				_ = r.Close()
			}
		}
		net.Close()
	})
	return h
}

// client returns a KV client on endpoint n+idx.
func (h *harness) client(idx int) *kvstore.Client {
	h.t.Helper()
	id := types.ProcessID(h.m.N + idx)
	c, err := smr.NewClient(h.net.Endpoint(id), h.m.All(), h.m.FPlusOne(), uint64(id), 100*time.Millisecond,
		smr.WithRequestEncoder(minbft.EncodeRequestEnvelope))
	if err != nil {
		h.t.Fatalf("NewClient: %v", err)
	}
	return kvstore.NewClient(c)
}

// checkLogsConsistent verifies replicas executed prefix-consistent
// sequences.
func (h *harness) checkLogsConsistent(skip map[int]bool) {
	h.t.Helper()
	var ref [][]byte
	refSet := false
	for i, log := range h.logs {
		if skip[i] {
			continue
		}
		snap := log.Snapshot()
		if !refSet {
			ref, refSet = snap, true
			continue
		}
		if err := smr.CheckPrefix(ref, snap); err != nil {
			h.t.Fatalf("replica %d: %v", i, err)
		}
	}
}

func TestHappyPathKV(t *testing.T) {
	h := newHarness(t, 3, 1, 1, 2*time.Second)
	kv := h.client(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	if err := kv.Put(ctx, "alpha", []byte("1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, err := kv.Get(ctx, "alpha")
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := kv.Put(ctx, "alpha", []byte("2")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if v, err = kv.Get(ctx, "alpha"); err != nil || string(v) != "2" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := kv.Del(ctx, "alpha"); err != nil {
		t.Fatalf("Del: %v", err)
	}
	if _, err := kv.Get(ctx, "alpha"); err != kvstore.ErrNotFound {
		t.Fatalf("Get after Del err = %v", err)
	}
	h.checkLogsConsistent(nil)
}

func TestConcurrentClients(t *testing.T) {
	h := newHarness(t, 3, 1, 4, 2*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			kv := h.client(c)
			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("c%d-k%d", c, i)
				if err := kv.Put(ctx, key, []byte{byte(i)}); err != nil {
					errs[c] = fmt.Errorf("put %s: %w", key, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// All 40 writes executed everywhere, in the same order.
	deadline := time.Now().Add(10 * time.Second)
	for _, log := range h.logs {
		for len(log.Snapshot()) < 40 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
	}
	h.checkLogsConsistent(nil)
	for i, log := range h.logs {
		if got := len(log.Snapshot()); got != 40 {
			t.Fatalf("replica %d executed %d commands, want 40", i, got)
		}
	}
}

func TestProgressWithBackupCrashed(t *testing.T) {
	h := newHarness(t, 3, 1, 1, 2*time.Second)
	// Crash a backup (replica 2). Primary 0 plus backup 1 are f+1 = 2.
	_ = h.replicas[2].Close()
	h.replicas[2] = nil

	kv := h.client(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := kv.Put(ctx, "survives", []byte("yes")); err != nil {
		t.Fatalf("Put with crashed backup: %v", err)
	}
	v, err := kv.Get(ctx, "survives")
	if err != nil || string(v) != "yes" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	h.checkLogsConsistent(map[int]bool{2: true})
}

func TestViewChangeOnPrimaryCrash(t *testing.T) {
	h := newHarness(t, 3, 1, 1, 150*time.Millisecond)
	kv := h.client(0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Commit something in view 0 first.
	if err := kv.Put(ctx, "pre", []byte("crash")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	// Crash the view-0 primary.
	_ = h.replicas[0].Close()
	h.replicas[0] = nil

	// The next request must drive a view change and still commit.
	if err := kv.Put(ctx, "post", []byte("recovered")); err != nil {
		t.Fatalf("Put after primary crash: %v", err)
	}
	v, err := kv.Get(ctx, "post")
	if err != nil || string(v) != "recovered" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	// Pre-crash state must have survived the view change.
	v, err = kv.Get(ctx, "pre")
	if err != nil || string(v) != "crash" {
		t.Fatalf("Get(pre) = %q, %v", v, err)
	}
	for _, i := range []int{1, 2} {
		if got := h.replicas[i].View(); got < 1 {
			t.Fatalf("replica %d still in view %d", i, got)
		}
	}
	h.checkLogsConsistent(map[int]bool{0: true})
}

func TestSuccessiveViewChanges(t *testing.T) {
	// With replicas 0 and then 1 crashed... n=3 f=1 cannot survive two
	// crashes; instead run n=5, f=2 and crash primaries of views 0 and 1.
	h := newHarness(t, 5, 2, 1, 150*time.Millisecond)
	kv := h.client(0)
	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()

	if err := kv.Put(ctx, "v0", []byte("a")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	_ = h.replicas[0].Close()
	h.replicas[0] = nil
	if err := kv.Put(ctx, "v1", []byte("b")); err != nil {
		t.Fatalf("Put after first crash: %v", err)
	}
	_ = h.replicas[1].Close()
	h.replicas[1] = nil
	if err := kv.Put(ctx, "v2", []byte("c")); err != nil {
		t.Fatalf("Put after second crash: %v", err)
	}
	for _, key := range []string{"v0", "v1", "v2"} {
		if _, err := kv.Get(ctx, key); err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
	}
	h.checkLogsConsistent(map[int]bool{0: true, 1: true})
}

func TestLargerCluster(t *testing.T) {
	h := newHarness(t, 7, 3, 2, 2*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	kv1, kv2 := h.client(0), h.client(1)
	for i := 0; i < 5; i++ {
		if err := kv1.Put(ctx, fmt.Sprintf("a%d", i), []byte("x")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := kv2.Put(ctx, fmt.Sprintf("b%d", i), []byte("y")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	h.checkLogsConsistent(nil)
}

func TestResilienceBound(t *testing.T) {
	m, _ := types.NewMembership(4, 2) // 2f+1 = 5 > 4
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	if _, err := minbft.New(m, net.Endpoint(0), tu.Devices[0], tu.Verifier, kvstore.New()); err == nil {
		t.Fatal("minbft accepted n < 2f+1")
	}
}
