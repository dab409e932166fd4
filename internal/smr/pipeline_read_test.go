package smr

import (
	"context"
	"testing"
	"time"

	"unidir/internal/simnet"
	"unidir/internal/types"
)

// readTestEncoder prefixes read requests with 'R' so scripted replicas can
// tell them from ordered requests (the real protocols use envelopes; the
// bare smr wire forms of Request and ReadRequest are identical).
func readTestEncoder(r ReadRequest) []byte {
	return append([]byte{'R'}, r.Encode()...)
}

// readTestReplica runs a scripted replica: each read request is answered by
// onRead (keyed on the read's Op so duplicate deliveries stay idempotent;
// identity fields are filled in here), and every ordered request is echoed
// like echoReplicas so escalated reads converge.
func readTestReplica(net *simnet.Network, id types.ProcessID, onRead func(op string) []ReadReply) {
	go func() {
		ep := net.Endpoint(id)
		for {
			env, err := ep.Recv(context.Background())
			if err != nil {
				return
			}
			if len(env.Payload) > 0 && env.Payload[0] == 'R' {
				req, err := DecodeReadRequest(env.Payload[1:])
				if err != nil {
					continue
				}
				for _, rep := range onRead(string(req.Op)) {
					rep.Replica = id
					rep.Client = req.Client
					rep.Num = req.Num
					_ = ep.Send(env.From, rep.Encode())
				}
				continue
			}
			for _, req := range decodeFrame(env.Payload) {
				rep := Reply{Replica: id, Client: req.Client, Num: req.Num, Result: req.Op}
				_ = ep.Send(env.From, rep.Encode())
			}
		}
	}()
}

func newReadPipeline(t *testing.T, retry time.Duration) (*simnet.Network, *Pipeline) {
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
	p, err := NewPipeline(net.Endpoint(3), []types.ProcessID{0, 1, 2}, 2, 3, retry, 8,
		WithPipelineReadEncoder(readTestEncoder))
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return net, p
}

// TestUnsolicitedLeasedReplyRejected pins the client's trust rule: a
// ReadLeased reply from a replica the read was never sent to must not
// complete the read (it demotes to one fallback vote) and must not capture
// the leader hint for subsequent reads. Replica 2 plays Byzantine: it
// claims the lease with a forged result for every read it sees.
func TestUnsolicitedLeasedReplyRejected(t *testing.T) {
	net, p := newReadPipeline(t, 10*time.Second)
	fallbackGood := []ReadReply{{Code: ReadFallback, ExecSeq: 5, Result: []byte("good")}}
	readTestReplica(net, 0, func(op string) []ReadReply {
		return fallbackGood // no lease here, ever
	})
	readTestReplica(net, 1, func(op string) []ReadReply {
		if op == "b" {
			return []ReadReply{{Code: ReadLeased, ExecSeq: 6, Result: []byte("r1-leased")}}
		}
		return fallbackGood
	})
	readTestReplica(net, 2, func(op string) []ReadReply {
		return []ReadReply{{Code: ReadLeased, ExecSeq: 5, Result: []byte("evil")}}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Read "a" goes to the initial hint (replica 0), widens on its fallback
	// vote, and must complete on the two matching honest votes — not on
	// replica 2's unsolicited leased claim.
	res, err := p.InvokeRead(ctx, []byte("a"))
	if err != nil {
		t.Fatalf("InvokeRead(a): %v", err)
	}
	if string(res) != "good" {
		t.Fatalf("read a = %q, want %q (unsolicited leased reply accepted)", res, "good")
	}
	// The widening rotated the hint 0 -> 1, and replica 2's leased claim
	// must not have captured it: read "b" is answered by replica 1's
	// (targeted, hence authoritative) leased reply.
	res, err = p.InvokeRead(ctx, []byte("b"))
	if err != nil {
		t.Fatalf("InvokeRead(b): %v", err)
	}
	if string(res) != "r1-leased" {
		t.Fatalf("read b = %q, want %q (leader hint poisoned)", res, "r1-leased")
	}
}

// TestFallbackStaleQuorumBelowMaxEscalates pins the max-watermark vote
// rule: a quorum of matching fallback votes must not win while a fresher
// vote sits in the read's vote set — the Byzantine-echo shape where one
// lying voter completes f lagging replicas' stale class. The read must
// escalate to the ordering path (scripted here as an echo) instead of
// returning the stale value.
func TestFallbackStaleQuorumBelowMaxEscalates(t *testing.T) {
	net, p := newReadPipeline(t, 10*time.Second)
	readTestReplica(net, 0, func(op string) []ReadReply {
		return []ReadReply{{Code: ReadFallback, ExecSeq: 10, Result: []byte("fresh")}}
	})
	stale := func(op string) []ReadReply {
		return []ReadReply{{Code: ReadFallback, ExecSeq: 9, Result: []byte("stale")}}
	}
	readTestReplica(net, 1, stale)
	readTestReplica(net, 2, stale)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// The hinted replica (0) votes at watermark 10 first, so the later
	// 9-watermark quorum from replicas 1 and 2 is stale by construction.
	// Once all three have voted with no winnable class, the read escalates
	// and completes with the ordering path's answer — the echoed op.
	res, err := p.InvokeRead(ctx, []byte("k"))
	if err != nil {
		t.Fatalf("InvokeRead: %v", err)
	}
	if string(res) == "stale" {
		t.Fatal("stale fallback quorum below the max watermark completed the read")
	}
	if string(res) != "k" {
		t.Fatalf("escalated read = %q, want ordering-path echo %q", res, "k")
	}
}
