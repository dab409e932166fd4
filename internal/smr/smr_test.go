package smr

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"unidir/internal/simnet"
	"unidir/internal/types"
)

func TestRequestReplyRoundTrip(t *testing.T) {
	req := Request{Client: 7, Num: 42, Op: []byte("operation")}
	got, err := DecodeRequest(req.Encode())
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if got.Client != req.Client || got.Num != req.Num || !bytes.Equal(got.Op, req.Op) {
		t.Fatalf("round trip: %+v vs %+v", got, req)
	}

	rep := Reply{Replica: 2, Client: 7, Num: 42, Result: []byte("res")}
	gotRep, err := DecodeReply(rep.Encode())
	if err != nil {
		t.Fatalf("DecodeReply: %v", err)
	}
	if gotRep.Replica != rep.Replica || gotRep.Client != rep.Client ||
		gotRep.Num != rep.Num || !bytes.Equal(gotRep.Result, rep.Result) {
		t.Fatalf("round trip: %+v vs %+v", gotRep, rep)
	}
}

func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(client, num uint64, op []byte) bool {
		req := Request{Client: client, Num: num, Op: op}
		got, err := DecodeRequest(req.Encode())
		return err == nil && got.Client == client && got.Num == num && bytes.Equal(got.Op, op)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1}, make([]byte, 10)} {
		if _, err := DecodeRequest(b); err == nil {
			t.Fatalf("DecodeRequest(%v) accepted garbage", b)
		}
		if _, err := DecodeReply(b); err == nil {
			t.Fatalf("DecodeReply(%v) accepted garbage", b)
		}
	}
}

func TestClientTable(t *testing.T) {
	tab := NewClientTable()
	r1 := Request{Client: 1, Num: 1, Op: []byte("a")}
	if !tab.ShouldExecute(r1) {
		t.Fatal("fresh request rejected")
	}
	tab.Executed(r1, []byte("res1"))
	if tab.ShouldExecute(r1) {
		t.Fatal("executed request re-admitted")
	}
	if res, ok := tab.CachedReply(r1); !ok || string(res) != "res1" {
		t.Fatalf("CachedReply = %q, %v", res, ok)
	}
	r2 := Request{Client: 1, Num: 2, Op: []byte("b")}
	if !tab.ShouldExecute(r2) {
		t.Fatal("next request rejected")
	}
	tab.Executed(r2, []byte("res2"))
	// Older request: not executable, no cached reply (only last is cached).
	if tab.ShouldExecute(r1) {
		t.Fatal("stale request re-admitted")
	}
	if _, ok := tab.CachedReply(r1); ok {
		t.Fatal("stale cached reply returned")
	}
}

func TestCheckPrefix(t *testing.T) {
	a := [][]byte{[]byte("x"), []byte("y")}
	b := [][]byte{[]byte("x"), []byte("y"), []byte("z")}
	if err := CheckPrefix(a, b); err != nil {
		t.Fatalf("CheckPrefix: %v", err)
	}
	if err := CheckPrefix(b, a); err != nil {
		t.Fatalf("CheckPrefix (swapped): %v", err)
	}
	c := [][]byte{[]byte("x"), []byte("DIFFERENT")}
	if err := CheckPrefix(a, c); err == nil {
		t.Fatal("divergence not detected")
	}
}

func TestExecutionLogCopies(t *testing.T) {
	var l ExecutionLog
	cmd := []byte("mutate-me")
	l.Record(cmd)
	cmd[0] = 'X'
	if string(l.Snapshot()[0]) != "mutate-me" {
		t.Fatal("log aliased caller buffer")
	}
}

// TestClientRetransmitsAndCollects runs the client against scripted
// "replicas" that stay silent until the second transmission, then reply.
func TestClientRetransmitsAndCollects(t *testing.T) {
	m, err := types.NewMembership(4, 1) // 3 replicas + 1 client endpoint
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	replicas := []types.ProcessID{0, 1, 2}
	client, err := NewClient(net.Endpoint(3), replicas, 2, 3, 30*time.Millisecond)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	// Each scripted replica ignores the first copy of the request and
	// replies to the second.
	for _, id := range replicas {
		go func(id types.ProcessID) {
			ep := net.Endpoint(id)
			seen := 0
			for {
				env, err := ep.Recv(context.Background())
				if err != nil {
					return
				}
				for _, req := range decodeFrame(env.Payload) {
					seen++
					if seen < 2 {
						continue
					}
					rep := Reply{Replica: id, Client: req.Client, Num: req.Num, Result: []byte("done")}
					_ = ep.Send(env.From, rep.Encode())
				}
			}
		}(id)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := client.Invoke(ctx, []byte("op"))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(res) != "done" {
		t.Fatalf("result = %q", res)
	}
}

// TestClientNeedsMatchingResults verifies a lone divergent replica cannot
// satisfy the client.
func TestClientNeedsMatchingResults(t *testing.T) {
	m, err := types.NewMembership(4, 1)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	client, err := NewClient(net.Endpoint(3), []types.ProcessID{0, 1, 2}, 2, 3, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	// Replica 0 replies "evil" once; replicas 1 and 2 reply "good".
	for _, cfg := range []struct {
		id  types.ProcessID
		res string
	}{{0, "evil"}, {1, "good"}, {2, "good"}} {
		go func(id types.ProcessID, res string) {
			ep := net.Endpoint(id)
			for {
				env, err := ep.Recv(context.Background())
				if err != nil {
					return
				}
				for _, req := range decodeFrame(env.Payload) {
					rep := Reply{Replica: id, Client: req.Client, Num: req.Num, Result: []byte(res)}
					_ = ep.Send(env.From, rep.Encode())
				}
			}
		}(cfg.id, cfg.res)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := client.Invoke(ctx, []byte("op"))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(res) != "good" {
		t.Fatalf("client accepted minority result %q", res)
	}
}

func TestClientClosed(t *testing.T) {
	m, _ := types.NewMembership(2, 0)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	client, err := NewClient(net.Endpoint(1), []types.ProcessID{0}, 1, 1, time.Millisecond)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	_ = client.Close()
	if _, err := client.Invoke(context.Background(), []byte("x")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Invoke after close err = %v", err)
	}
}

func TestClientValidation(t *testing.T) {
	m, _ := types.NewMembership(2, 0)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	if _, err := NewClient(net.Endpoint(1), []types.ProcessID{0}, 2, 1, 0); err == nil {
		t.Fatal("need > replicas accepted")
	}
	if _, err := NewClient(net.Endpoint(1), []types.ProcessID{0}, 0, 1, 0); err == nil {
		t.Fatal("need 0 accepted")
	}
}
