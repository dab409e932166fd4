package srb_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/srb"
	"unidir/internal/srb/trincsrb"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

func TestRunnerConcurrentBroadcasts(t *testing.T) {
	// Several goroutines broadcast on every node while the receive
	// goroutines run: the one lock must serialize attests, and queueing
	// under it must keep each sender's deliveries in order.
	const writers, each = 3, 10
	m := mustMembership(t, 4, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	nodes := make([]srb.Node, m.N)
	for i := range nodes {
		if nodes[i], err = trincsrb.New(m, net.Endpoint(types.ProcessID(i)), tu.Devices[i], tu.Verifier); err != nil {
			t.Fatalf("New: %v", err)
		}
		defer nodes[i].Close()
	}
	rec := srb.NewRecorder()
	var wg sync.WaitGroup
	for _, n := range nodes {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(n srb.Node, w int) {
				defer wg.Done()
				for j := 0; j < each; j++ {
					data := []byte(fmt.Sprintf("%v/%d/%d", n.Self(), w, j))
					seq, err := n.Broadcast(data)
					if err != nil {
						t.Errorf("%v: Broadcast: %v", n.Self(), err)
						return
					}
					rec.Broadcast(n.Self(), seq, data)
				}
			}(n, w)
		}
	}
	wg.Wait()
	want := make(map[types.ProcessID]int, m.N)
	for _, n := range nodes {
		want[n.Self()] = m.N * writers * each
	}
	collect(t, nodes, rec, want, 30*time.Second)
	if err := rec.CheckAll(m.All()); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerClose(t *testing.T) {
	m := mustMembership(t, 4, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	ep := net.Endpoint(0)
	node, err := trincsrb.New(m, ep, tu.Devices[0], tu.Verifier)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := node.Deliver(context.Background())
		blocked <- err
	}()
	for i := 0; i < 2; i++ {
		if err := node.Close(); err != nil {
			t.Fatalf("Close %d: %v", i+1, err)
		}
	}
	if err := <-blocked; !errors.Is(err, srb.ErrClosed) {
		t.Fatalf("blocked Deliver returned %v, want ErrClosed", err)
	}
	if _, err := node.Broadcast([]byte("late")); !errors.Is(err, srb.ErrClosed) {
		t.Fatalf("Broadcast after Close: %v, want ErrClosed", err)
	}
	if _, err := node.Deliver(context.Background()); !errors.Is(err, srb.ErrClosed) {
		t.Fatalf("Deliver after Close: %v, want ErrClosed", err)
	}
	if _, err := ep.Recv(context.Background()); err == nil {
		t.Fatal("transport still open after Close")
	}
}
