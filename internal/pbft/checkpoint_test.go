package pbft_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/pbft"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/smr"
	"unidir/internal/types"
)

// newCkptHarness is newHarness with replica settings (checkpoint interval,
// batch size) threaded through.
func newCkptHarness(t *testing.T, n, f, clients int, cfg smr.EngineConfig) *harness {
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
	rings, err := sig.NewKeyrings(m, sig.HMAC, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatalf("NewKeyrings: %v", err)
	}
	h := &harness{t: t, m: m, net: net,
		replicas: make([]*pbft.Replica, n),
		logs:     make([]*smr.ExecutionLog, n)}
	for i := 0; i < n; i++ {
		h.logs[i] = &smr.ExecutionLog{}
		c := cfg
		c.ExecutionLog = h.logs[i]
		rep, err := pbft.New(m, net.Endpoint(types.ProcessID(i)), rings[i], kvstore.New(), pbft.WithEngineConfig(c))
		if err != nil {
			t.Fatalf("pbft.New: %v", err)
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

func waitPBFTFootprint(t *testing.T, h *harness, d time.Duration, pred func(pbft.Footprint) bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for i, rep := range h.replicas {
		for !pred(rep.Footprint()) {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d footprint never converged: %+v", i, rep.Footprint())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestCheckpointGCReleasesSlots(t *testing.T) {
	const interval = 2
	h := newCkptHarness(t, 4, 1, 1, smr.EngineConfig{CheckpointInterval: interval})
	c := h.client(0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const ops = 10
	for i := 0; i < ops; i++ {
		if _, err := c.invoke(ctx, kvstore.EncodePut(fmt.Sprintf("gc-%d", i), []byte{byte(i)})); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	// Closed-loop client: one request per slot, so the stable checkpoint
	// tracks the op count and released slots keep the map small.
	waitPBFTFootprint(t, h, 10*time.Second, func(fp pbft.Footprint) bool {
		return fp.StableSeq >= ops-interval
	})
	for i, rep := range h.replicas {
		if fp := rep.Footprint(); fp.Slots > 3*interval {
			t.Fatalf("replica %d retains %d slots after GC: %+v", i, fp.Slots, fp)
		}
	}
	for i := 1; i < len(h.logs); i++ {
		if err := smr.CheckPrefix(h.logs[0].Snapshot(), h.logs[i].Snapshot()); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
}

func TestStateTransferToLaggingReplica(t *testing.T) {
	const interval = 2
	h := newCkptHarness(t, 4, 1, 1, smr.EngineConfig{CheckpointInterval: interval})
	c := h.client(0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Isolate replica 3 from its peers; the remaining 2f+1 = 3 replicas
	// keep the protocol running and GC the slots replica 3 misses.
	h.net.BlockPair(3, 0)
	h.net.BlockPair(3, 1)
	h.net.BlockPair(3, 2)
	for i := 0; i < 8; i++ {
		if _, err := c.invoke(ctx, kvstore.EncodePut(fmt.Sprintf("away-%d", i), []byte{byte(i)})); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	h.net.HealAll()

	// PBFT has no fetch protocol, so the only way back for replica 3 is a
	// checkpoint quorum beyond its execution: the next interval boundary's
	// votes (2f+1 of them from its peers) prove the cluster is past it and
	// trigger the state fetch.
	for i := 0; i < 2*interval; i++ {
		if _, err := c.invoke(ctx, kvstore.EncodePut(fmt.Sprintf("back-%d", i), []byte{byte(i)})); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	waitPBFTFootprint(t, h, 20*time.Second, func(fp pbft.Footprint) bool {
		return fp.StableSeq >= 8
	})

	// Replica 3 must execute new slots after the install, not just hold
	// transferred state.
	finalOp := kvstore.EncodePut("rejoined", []byte("yes"))
	if _, err := c.invoke(ctx, finalOp); err != nil {
		t.Fatalf("invoke rejoined: %v", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		found := false
		for _, cmd := range h.logs[3].Snapshot() {
			req, err := smr.DecodeRequest(cmd)
			if err != nil {
				t.Fatalf("replica 3: undecodable log entry: %v", err)
			}
			if bytes.Equal(req.Op, finalOp) {
				found = true
				break
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica 3 never executed a post-transfer request")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The replicas that saw everything stay prefix-consistent; replica 3's
	// log has a legitimate gap (the transferred slots) but must not contain
	// duplicates.
	for i := 1; i < 3; i++ {
		if err := smr.CheckPrefix(h.logs[0].Snapshot(), h.logs[i].Snapshot()); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
	seen := make(map[[2]uint64]bool)
	for _, cmd := range h.logs[3].Snapshot() {
		req, err := smr.DecodeRequest(cmd)
		if err != nil {
			t.Fatalf("replica 3: undecodable log entry: %v", err)
		}
		key := [2]uint64{req.Client, req.Num}
		if seen[key] {
			t.Fatalf("replica 3 executed request client=%d num=%d twice", req.Client, req.Num)
		}
		seen[key] = true
	}
}
