package pbft_test

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/obs"
	"unidir/internal/pbft"
	"unidir/internal/smr"
	"unidir/internal/types"
)

// pipe returns a pipelined KV client on endpoint n+idx, wired for the read
// fast path. PBFT fallback reads need 2f+1 matching votes so the vote set
// intersects every committed write's executor quorum.
func (h *harness) pipe(idx int, retry time.Duration) *kvstore.PipeClient {
	h.t.Helper()
	id := types.ProcessID(h.m.N + idx)
	pl, err := smr.NewPipeline(h.net.Endpoint(id), h.m.All(), h.m.Quorum(), uint64(id), retry, 64,
		smr.WithPipelineRequestEncoder(pbft.EncodeRequestEnvelope),
		smr.WithPipelineReadEncoder(pbft.EncodeReadRequestEnvelope),
		smr.WithPipelineReadBatchEncoder(pbft.EncodeReadBatchEnvelope),
		smr.WithReadQuorum(h.m.Quorum()))
	if err != nil {
		h.t.Fatalf("NewPipeline: %v", err)
	}
	h.t.Cleanup(func() { _ = pl.Close() })
	return kvstore.NewPipeClient(pl)
}

func sumCounters(reg *obs.Registry, prefix string) uint64 {
	var total uint64
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, prefix) {
			total += v
		}
	}
	return total
}

func TestLeasedReadFastPath(t *testing.T) {
	reg := obs.NewRegistry()
	h := newHarness(t, 4, 1, 1, smr.EngineConfig{Metrics: reg})
	kv := h.pipe(0, 200*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	for i := 1; i <= 5; i++ {
		want := strconv.Itoa(i)
		if err := kv.Put(ctx, "alpha", []byte(want)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		v, err := kv.GetFast(ctx, "alpha")
		if err != nil || string(v) != want {
			t.Fatalf("GetFast = %q, %v; want %q", v, err, want)
		}
	}
	if _, err := kv.GetFast(ctx, "missing"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("GetFast(missing) err = %v, want ErrNotFound", err)
	}
	if sumCounters(reg, "pbft_leased_reads_total") == 0 {
		t.Fatal("no read was served from the lease; fast path never engaged")
	}
}

// TestQuorumReadFallback disables leases: every read must complete as a
// quorum read on 2f+1 matching (executed seq, result) votes instead.
func TestQuorumReadFallback(t *testing.T) {
	reg := obs.NewRegistry()
	h := newHarness(t, 4, 1, 1, smr.EngineConfig{Metrics: reg, LeaseTerm: -1})
	kv := h.pipe(0, 200*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	for i := 1; i <= 3; i++ {
		want := strconv.Itoa(i)
		if err := kv.Put(ctx, "alpha", []byte(want)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		v, err := kv.GetFast(ctx, "alpha")
		if err != nil || string(v) != want {
			t.Fatalf("GetFast = %q, %v; want %q", v, err, want)
		}
	}
	if sumCounters(reg, "pbft_leased_reads_total") != 0 {
		t.Fatal("a read was served from a lease despite leases being disabled")
	}
	if sumCounters(reg, "pbft_fallback_reads_total") == 0 {
		t.Fatal("no fallback votes were cast; reads completed some other way")
	}
	ref := h.logs[0].Snapshot()
	for i := 1; i < len(h.logs); i++ {
		if err := smr.CheckPrefix(ref, h.logs[i].Snapshot()); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
}
