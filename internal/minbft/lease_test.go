package minbft_test

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/minbft"
	"unidir/internal/smr"
	"unidir/internal/types"
)

// pipe returns a pipelined KV client on endpoint n+idx, wired for the read
// fast path (read encoder + f+1 fallback-vote quorum).
func (h *harness) pipe(idx int, retry time.Duration) *kvstore.PipeClient {
	h.t.Helper()
	id := types.ProcessID(h.m.N + idx)
	pl, err := smr.NewPipeline(h.net.Endpoint(id), h.m.All(), h.m.FPlusOne(), uint64(id), retry, 64,
		smr.WithPipelineRequestEncoder(minbft.EncodeRequestEnvelope),
		smr.WithPipelineReadEncoder(minbft.EncodeReadRequestEnvelope),
		smr.WithPipelineReadBatchEncoder(minbft.EncodeReadBatchEnvelope),
		smr.WithReadQuorum(h.m.FPlusOne()))
	if err != nil {
		h.t.Fatalf("NewPipeline: %v", err)
	}
	h.t.Cleanup(func() { _ = pl.Close() })
	return kvstore.NewPipeClient(pl)
}

// leasedReads sums minbft_leased_reads_total across the cluster.
func (h *harness) leasedReads() uint64 {
	var total uint64
	for name, v := range h.metrics.Snapshot().Counters {
		if strings.HasPrefix(name, "minbft_leased_reads_total") {
			total += v
		}
	}
	return total
}

func TestLeasedReadFastPath(t *testing.T) {
	h := newHarness(t, 3, 1, 1, 2*time.Second)
	kv := h.pipe(0, 200*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	for i := 1; i <= 5; i++ {
		want := strconv.Itoa(i)
		if err := kv.Put(ctx, "alpha", []byte(want)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		// Read-your-writes through the leader: the Put above was acked, so
		// a linearizable read must observe it.
		v, err := kv.GetFast(ctx, "alpha")
		if err != nil || string(v) != want {
			t.Fatalf("GetFast = %q, %v; want %q", v, err, want)
		}
	}
	if _, err := kv.GetFast(ctx, "missing"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("GetFast(missing) err = %v, want ErrNotFound", err)
	}
	if n := h.leasedReads(); n == 0 {
		t.Fatal("no read was served from the lease; fast path never engaged")
	}
}

// TestLeaseRevocationNoStaleRead kills the lease-holding primary in the
// middle of a read stream while a writer keeps bumping a counter. Every
// read must return a value at least as fresh as the last write acked before
// the read was issued — across the lease, the revocation, the view change,
// and the new leader's lease — and reads must keep completing after the
// kill. Run under -race this also exercises the client's concurrent
// read/write paths.
func TestLeaseRevocationNoStaleRead(t *testing.T) {
	h := newHarness(t, 3, 1, 2, 500*time.Millisecond,
		smr.EngineConfig{LeaseTerm: 100 * time.Millisecond})
	writer := h.client(0)
	reader := h.pipe(1, 100*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var acked atomic.Int64 // highest counter value acked to the writer
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := writer.Put(ctx, "ctr", []byte(strconv.FormatInt(i, 10))); err != nil {
				return // context over; main goroutine reports its own errors
			}
			acked.Store(i)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	readOnce := func() {
		t.Helper()
		floor := acked.Load()
		v, err := reader.GetFast(ctx, "ctr")
		if errors.Is(err, kvstore.ErrNotFound) {
			v = []byte("0")
		} else if err != nil {
			t.Fatalf("GetFast: %v", err)
		}
		got, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			t.Fatalf("non-numeric read %q: %v", v, err)
		}
		if got < floor {
			t.Fatalf("stale read: got %d, but %d was acked before the read was issued", got, floor)
		}
	}

	for i := 0; i < 50; i++ {
		readOnce()
	}
	ackedAtKill := acked.Load()
	if ackedAtKill == 0 {
		t.Fatal("writer made no progress before the kill")
	}
	// Depose the lease holder mid-stream.
	_ = h.replicas[0].Close()
	h.replicas[0] = nil
	for i := 0; i < 50; i++ {
		readOnce()
	}
	// Writes must have resumed under the new view, and reads observed them.
	deadline := time.Now().Add(30 * time.Second)
	for acked.Load() <= ackedAtKill {
		if time.Now().After(deadline) {
			t.Fatal("writer made no progress after the primary was killed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	readOnce()
	h.checkLogsConsistent(map[int]bool{0: true})
}

// TestLeasedReadsSurviveCheckpointGC regression-tests the watermark rebase:
// checkpoint GC truncates the executed prefix of prepOrder and zeroes the
// execute index, and queued leased reads hold watermarks indexing that
// slice. Without rebasing them with it, a read queued behind an in-flight
// batch when a checkpoint stabilizes is stranded until a client retransmit.
// The long pipeline retry below keeps retransmits from masking a strand.
func TestLeasedReadsSurviveCheckpointGC(t *testing.T) {
	h := newHarness(t, 3, 1, 1, 2*time.Second,
		smr.EngineConfig{CheckpointInterval: 2, BatchSize: 1})
	kv := h.pipe(0, 30*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for round := 0; round < 20; round++ {
		// A burst of pipelined writes keeps several batches in flight, so
		// the interleaved reads park in the leader's watermark queue while
		// checkpoints for the executed prefix stabilize underneath them —
		// the state the GC rebase must preserve.
		var puts []*smr.Call
		var reads []*smr.ReadCall
		for i := 0; i < 16; i++ {
			put, err := kv.PutAsync(ctx, "k", []byte(strconv.Itoa(round*16+i)))
			if err != nil {
				t.Fatalf("PutAsync: %v", err)
			}
			read, err := kv.GetAsync(ctx, "k")
			if err != nil {
				t.Fatalf("GetAsync: %v", err)
			}
			puts, reads = append(puts, put), append(reads, read)
		}
		for i, read := range reads {
			select {
			case <-read.Done():
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d read %d: stranded across a checkpoint GC", round, i)
			}
			if _, err := read.Result(); err != nil {
				t.Fatalf("round %d read %d: %v", round, i, err)
			}
		}
		for i, put := range puts {
			if _, err := put.Result(); err != nil {
				t.Fatalf("round %d put %d: %v", round, i, err)
			}
		}
	}
	if n := h.leasedReads(); n == 0 {
		t.Fatal("no read was served from the lease; fast path never engaged")
	}
}
