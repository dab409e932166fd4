package smr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"unidir/internal/simnet"
	"unidir/internal/types"
)

func TestRequestBatchRoundTrip(t *testing.T) {
	reqs := []Request{
		{Client: 1, Num: 1, Op: []byte("a")},
		{Client: 2, Num: 7, Op: nil},
		{Client: 1, Num: 2, Op: []byte("ccc")},
	}
	got, err := DecodeRequests(EncodeRequests(reqs), 16)
	if err != nil {
		t.Fatalf("DecodeRequests: %v", err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("len = %d, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i].Client != reqs[i].Client || got[i].Num != reqs[i].Num || !bytes.Equal(got[i].Op, reqs[i].Op) {
			t.Fatalf("entry %d: %+v vs %+v", i, got[i], reqs[i])
		}
	}
}

func TestRequestBatchBounds(t *testing.T) {
	if _, err := DecodeRequests(EncodeRequests(nil), 16); err == nil {
		t.Fatal("empty batch accepted")
	}
	three := EncodeRequests([]Request{{Num: 1}, {Num: 2}, {Num: 3}})
	if _, err := DecodeRequests(three, 2); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if _, err := DecodeRequests([]byte{1, 2, 3}, 16); err == nil {
		t.Fatal("garbage accepted")
	}
}

// echoReplicas runs scripted replicas that decode any request and reply with
// its Op, skipping the first skipN copies of each distinct request.
func echoReplicas(net *simnet.Network, ids []types.ProcessID, skipN int) {
	for _, id := range ids {
		go func(id types.ProcessID) {
			ep := net.Endpoint(id)
			seen := make(map[uint64]int)
			for {
				env, err := ep.Recv(context.Background())
				if err != nil {
					return
				}
				for _, req := range decodeFrame(env.Payload) {
					seen[req.Num]++
					if seen[req.Num] <= skipN {
						continue
					}
					rep := Reply{Replica: id, Client: req.Client, Num: req.Num, Result: req.Op}
					_ = ep.Send(env.From, rep.Encode())
				}
			}
		}(id)
	}
}

func newPipelineFixture(t *testing.T, window, skipN int) *Pipeline {
	t.Helper()
	m, err := types.NewMembership(4, 1) // 3 replicas + 1 client endpoint
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	t.Cleanup(func() { net.Close() })
	replicas := []types.ProcessID{0, 1, 2}
	echoReplicas(net, replicas, skipN)
	p, err := NewPipeline(net.Endpoint(3), replicas, 2, 3, 30*time.Millisecond, window)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func TestPipelineManyInFlight(t *testing.T) {
	p := newPipelineFixture(t, 4, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	calls := make([]*Call, 20)
	for i := range calls {
		call, err := p.Submit(ctx, []byte(fmt.Sprintf("op-%d", i)))
		if err != nil {
			t.Fatalf("Submit(%d): %v", i, err)
		}
		calls[i] = call
	}
	for i, call := range calls {
		res, err := call.Result()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if want := fmt.Sprintf("op-%d", i); string(res) != want {
			t.Fatalf("call %d result = %q, want %q", i, res, want)
		}
	}
}

func TestPipelineRetransmits(t *testing.T) {
	// Replicas ignore the first copy of every request; only the pipeline's
	// retransmission ticker gets an answer back.
	p := newPipelineFixture(t, 2, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := p.Invoke(ctx, []byte("persist"))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(res) != "persist" {
		t.Fatalf("result = %q", res)
	}
}

func TestPipelineCloseCompletesOutstanding(t *testing.T) {
	m, _ := types.NewMembership(2, 0)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	// Replica 0 never answers.
	p, err := NewPipeline(net.Endpoint(1), []types.ProcessID{0}, 1, 1, time.Second, 2)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	call, err := p.Submit(ctx, []byte("stuck"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := call.Result(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("outstanding call err = %v, want ErrClientClosed", err)
	}
	if _, err := p.Submit(ctx, []byte("late")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Submit after close err = %v", err)
	}
}

func TestPipelineWindowBlocks(t *testing.T) {
	m, _ := types.NewMembership(2, 0)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	p, err := NewPipeline(net.Endpoint(1), []types.ProcessID{0}, 1, 1, time.Second, 1)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	defer p.Close()
	if _, err := p.Submit(context.Background(), []byte("fills window")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Window full and the replica silent: the next Submit must block until
	// its context expires.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := p.Submit(ctx, []byte("blocked")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit on full window err = %v, want deadline exceeded", err)
	}
}

func TestPipelineValidation(t *testing.T) {
	m, _ := types.NewMembership(2, 0)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	if _, err := NewPipeline(net.Endpoint(1), []types.ProcessID{0}, 2, 1, 0, 1); err == nil {
		t.Fatal("need > replicas accepted")
	}
	if _, err := NewPipeline(net.Endpoint(1), []types.ProcessID{0}, 1, 1, 0, 0); err == nil {
		t.Fatal("window 0 accepted")
	}
}

// decodeFrame returns the requests of a client request frame, or nil.
func decodeFrame(b []byte) []Request {
	reqs, err := DecodeRequests(b, MaxFrameRequests)
	if err != nil {
		return nil
	}
	return reqs
}
