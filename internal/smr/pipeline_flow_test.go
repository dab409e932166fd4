package smr

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"unidir/internal/simnet"
	"unidir/internal/types"
)

// codedReplicas runs scripted replicas that echo requests while overloaded is
// false and answer every request with a ReplyOverloaded vote while it is true.
func codedReplicas(net *simnet.Network, ids []types.ProcessID, overloaded *atomic.Bool) {
	for _, id := range ids {
		go func(id types.ProcessID) {
			ep := net.Endpoint(id)
			for {
				env, err := ep.Recv(context.Background())
				if err != nil {
					return
				}
				for _, req := range decodeFrame(env.Payload) {
					rep := Reply{Replica: id, Client: req.Client, Num: req.Num}
					if overloaded.Load() {
						rep.Code = ReplyOverloaded
					} else {
						rep.Result = req.Op
					}
					_ = ep.Send(env.From, rep.Encode())
				}
			}
		}(id)
	}
}

// TestPipelineSubmitTimeoutSheds: with a submit timeout, a window that stays
// exhausted fails fast with the retryable ErrOverloaded instead of blocking
// until the caller's context dies.
func TestPipelineSubmitTimeoutSheds(t *testing.T) {
	m, _ := types.NewMembership(2, 0)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	// Replica 0 never answers; window 1.
	p, err := NewPipeline(net.Endpoint(1), []types.ProcessID{0}, 1, 1, time.Second, 1,
		WithSubmitTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	defer p.Close()
	if _, err := p.Submit(context.Background(), []byte("fills window")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	start := time.Now()
	_, err = p.Submit(context.Background(), []byte("shed"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit on exhausted window = %v, want ErrOverloaded", err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("shed took %v, want ~50ms", el)
	}
}

// TestPipelineOverloadQuorum: a single replica claiming overload proves
// nothing, but f+1 matching overload votes complete the call with
// ErrOverloaded and an empty result.
func TestPipelineOverloadQuorum(t *testing.T) {
	m, err := types.NewMembership(4, 1)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	var overloaded atomic.Bool
	overloaded.Store(true)
	replicas := []types.ProcessID{0, 1, 2}
	codedReplicas(net, replicas, &overloaded)
	p, err := NewPipeline(net.Endpoint(3), replicas, 2, 3, 5*time.Second, 4)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := p.Invoke(ctx, []byte("op"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Invoke under overload = (%q, %v), want ErrOverloaded", res, err)
	}
	if len(res) != 0 {
		t.Fatalf("shed request returned a result: %q", res)
	}
}

// TestPipelineAdaptiveWindowAIMD: overload votes halve the effective window;
// a run of clean completions grows it back to the configured maximum, and the
// pipeline keeps working throughout (token conservation).
func TestPipelineAdaptiveWindowAIMD(t *testing.T) {
	m, err := types.NewMembership(4, 1)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	var overloaded atomic.Bool
	overloaded.Store(true)
	replicas := []types.ProcessID{0, 1, 2}
	codedReplicas(net, replicas, &overloaded)
	const winMax = 8
	// Long retry keeps the retransmit ticker out of this test's way.
	p, err := NewPipeline(net.Endpoint(3), replicas, 2, 3, 5*time.Second, winMax,
		WithAdaptiveWindow(1))
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := p.Invoke(ctx, []byte("x")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Invoke under overload = %v, want ErrOverloaded", err)
	}
	if got := p.Window(); got != winMax/2 {
		t.Fatalf("window after one overload quorum = %d, want %d", got, winMax/2)
	}

	overloaded.Store(false)
	// 4 -> 8 takes 4+5+6+7 = 22 clean completions; 100 gives slack.
	for i := 0; i < 100; i++ {
		if _, err := p.Invoke(ctx, []byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatalf("Invoke(%d) after recovery: %v", i, err)
		}
	}
	if got := p.Window(); got != winMax {
		t.Fatalf("window after recovery = %d, want %d", got, winMax)
	}
	// The fully recovered window must hold winMax concurrent submissions.
	calls := make([]*Call, winMax)
	for i := range calls {
		call, err := p.Submit(ctx, []byte(fmt.Sprintf("burst-%d", i)))
		if err != nil {
			t.Fatalf("Submit burst %d: %v", i, err)
		}
		calls[i] = call
	}
	for i, call := range calls {
		if _, err := call.Result(); err != nil {
			t.Fatalf("burst call %d: %v", i, err)
		}
	}
}
