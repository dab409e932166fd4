package minbft_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"unidir/internal/byz"
	"unidir/internal/minbft"
	"unidir/internal/smr"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// TestOverloadSoak drives the pipelined client flat-out past saturation —
// window well above the replicas' admission bound — while a Byzantine
// spammer floods every replica with garbage. The flow-control contract
// under that abuse:
//
//   - pending queues stay bounded (the admission bound actually engages),
//   - shed requests surface as the typed, retryable smr.ErrOverloaded and
//     nothing else fails,
//   - the cluster never wedges: every submitted call completes, and
//   - it recovers: a clean closed-loop tail succeeds once the storm stops.
func TestOverloadSoak(t *testing.T) {
	const (
		n, f       = 3, 1
		maxPending = 32
		window     = 128
		ops        = 1500
	)
	// Endpoint n is the pipeline, n+1 the spammer, n+2 the tail client.
	h := newHarness(t, n, f, 3, time.Second,
		smr.EngineConfig{BatchSize: 8, BatchDeadline: 100 * time.Microsecond,
			Admission: &smr.AdmissionConfig{MaxPending: maxPending}})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spam := byz.NewSpammer(h.net.Endpoint(types.ProcessID(n+1)),
		h.m.All(), 101, 2*time.Millisecond)
	defer spam.Stop()

	// Sample the pending-depth gauges while the storm runs; the admission
	// bound must hold at every instant, not just at the end.
	var maxDepth atomic.Int64
	sampleDone := make(chan struct{})
	sampleStopped := make(chan struct{})
	go func() {
		defer close(sampleStopped)
		for {
			select {
			case <-sampleDone:
				return
			case <-time.After(2 * time.Millisecond):
			}
			snap := h.metrics.Snapshot()
			if d := snap.GaugeSum("minbft_pending_requests"); d > maxDepth.Load() {
				maxDepth.Store(d)
			}
		}
	}()

	pipeID := types.ProcessID(n)
	pl, err := smr.NewPipeline(h.net.Endpoint(pipeID), h.m.All(), h.m.FPlusOne(),
		uint64(pipeID), 100*time.Millisecond, window,
		smr.WithPipelineRequestEncoder(minbft.EncodeRequestEnvelope),
		smr.WithSubmitTimeout(2*time.Millisecond),
		smr.WithAdaptiveWindow(4))
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	defer pl.Close()

	var calls []*smr.Call
	var submitSheds int
	for i := 0; i < ops; i++ {
		op := []byte(fmt.Sprintf("overload-%d", i))
		call, err := pl.Submit(ctx, op)
		switch {
		case err == nil:
			calls = append(calls, call)
		case errors.Is(err, smr.ErrOverloaded):
			submitSheds++
		default:
			t.Fatalf("Submit %d: unexpected error %v", i, err)
		}
	}
	var completed, replicaSheds int
	for i, call := range calls {
		_, err := call.Result()
		switch {
		case err == nil:
			completed++
		case errors.Is(err, smr.ErrOverloaded):
			replicaSheds++
		default:
			t.Fatalf("call %d: unexpected error %v", i, err)
		}
	}
	close(sampleDone)
	<-sampleStopped
	spam.Stop()

	t.Logf("completed=%d submitSheds=%d replicaSheds=%d window=%d maxPendingDepth=%d",
		completed, submitSheds, replicaSheds, pl.Window(), maxDepth.Load())
	if completed == 0 {
		t.Fatal("no request completed under overload")
	}
	if submitSheds+replicaSheds == 0 {
		t.Fatal("overload shed nothing; the soak never saturated the stack")
	}
	if got := completed + replicaSheds + submitSheds; got != ops {
		t.Fatalf("accounted for %d of %d requests", got, ops)
	}
	// Every replica applies the same bound; the summed gauge can reach at
	// most n * maxPending, plus whatever each event loop had already pulled
	// off its inbound queue when a sample landed. The point is the order of
	// magnitude: without admission control the backlog would be the full
	// offered load.
	if limit := int64(n * maxPending); maxDepth.Load() > limit {
		t.Fatalf("pending depth reached %d, admission bound is %d", maxDepth.Load(), limit)
	}
	if spam.Sent() == 0 {
		t.Fatal("spammer sent nothing; the soak exercised no byzantine traffic")
	}
	snap := h.metrics.Snapshot()
	if submitSheds == 0 && snap.CounterSum("minbft_requests_shed_total") == 0 {
		t.Fatal("metrics: no replica-side sheds recorded")
	}

	// Recovery: with the storm over, a clean closed-loop tail must commit.
	kv := h.client(2)
	for i := 0; i < 5; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("recovery-%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("no recovery after overload: Put %d: %v", i, err)
		}
	}
	checkNoDoubleExecution(t, h, nil)
	checkLogsMutuallyOrdered(t, h)
}

// deadPeerTransport reports an ever-growing send queue towards one peer, as
// tcpnet does for a peer that has crashed: frames for it are buffered and
// never drained.
type deadPeerTransport struct {
	transport.Transport
	dead  types.ProcessID
	depth atomic.Int64
}

func (d *deadPeerTransport) QueueDepth(to types.ProcessID) int {
	if to != d.dead {
		return 0
	}
	return int(d.depth.Add(1000))
}

func TestPacingIgnoresDeadPeer(t *testing.T) {
	// Proposal pacing must look at the f peers whose commits a batch needs,
	// not at every peer: a crashed backup's queue only grows, and pacing on
	// it wedges the primary for good.
	h := newHarnessOn(t, 3, 1, 1, 2*time.Second,
		func(i int, tr transport.Transport) transport.Transport {
			return &deadPeerTransport{Transport: tr, dead: 2}
		}, smr.EngineConfig{PaceDepth: 16})
	_ = h.replicas[2].Close()
	h.replicas[2] = nil
	kv := h.client(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("Put %d with a dead peer's queue growing: %v", i, err)
		}
	}
	if paced := h.metrics.Snapshot().CounterSum("minbft_paced_proposals_total"); paced != 0 {
		t.Fatalf("%d proposals paced on a dead peer's queue", paced)
	}
}
