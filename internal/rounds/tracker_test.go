package rounds_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"unidir/internal/rounds"
	"unidir/internal/simnet"
	"unidir/internal/types"
)

// endObserver declares a process's round boundary when its WaitEnd returns
// (boundary), and remembers how many peers' Got events it had seen then. One
// process's last Got of the round (the one that completes it) is slow: it
// signals blocked and reports only once the test releases it.
type endObserver struct {
	hold    types.ProcessID
	peers   int
	blocked chan struct{}
	release chan struct{}

	mu    sync.Mutex
	got   map[types.ProcessID]int
	atEnd map[types.ProcessID]int
}

func (o *endObserver) Sent(types.ProcessID, types.Round)     {}
func (o *endObserver) Boundary(types.ProcessID, types.Round) {} // declared at WaitEnd instead

func (o *endObserver) Got(p, _ types.ProcessID, _ types.Round) {
	o.mu.Lock()
	last := p == o.hold && o.got[p] == o.peers-1
	o.mu.Unlock()
	if last {
		close(o.blocked)
		select {
		case <-o.release:
		case <-time.After(5 * time.Second):
		}
	}
	o.mu.Lock()
	o.got[p]++
	o.mu.Unlock()
}

func (o *endObserver) boundary(p types.ProcessID) {
	o.mu.Lock()
	o.atEnd[p] = o.got[p]
	o.mu.Unlock()
}

// TestLockstepGotBeforeWaitEnd: a round's Got events are reported in order
// with the table writes, so a boundary declared when WaitEnd returns comes
// after every Got for the messages WaitEnd returned, however slow the
// observer. Reported after the tracker released its lock, the last Got could
// land after WaitEnd had already returned, and core.UniChecker would see a
// round end without a message the process had.
func TestLockstepGotBeforeWaitEnd(t *testing.T) {
	m := mustMembership(t, 4, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	obs := &endObserver{hold: 0, peers: m.N - 1, blocked: make(chan struct{}), release: make(chan struct{}),
		got: make(map[types.ProcessID]int), atEnd: make(map[types.ProcessID]int)}
	var systems []*rounds.Lockstep
	for _, id := range m.All() {
		sys, err := rounds.NewLockstep(net.Endpoint(id), m, rounds.WithObserver(obs))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		systems = append(systems, sys)
	}
	for i, sys := range systems {
		if err := sys.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-obs.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("p0 never got its peers' round-1 messages")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	type ended struct {
		got map[types.ProcessID][]byte
		err error
	}
	done := make(chan ended, 1)
	go func() {
		got, err := systems[0].WaitEnd(ctx, 1)
		obs.boundary(0)
		done <- ended{got, err}
	}()
	// Give a WaitEnd that does not wait for the slow Got time to return.
	time.Sleep(50 * time.Millisecond)
	close(obs.release)
	res := <-done
	if res.err != nil || len(res.got) != m.N {
		t.Fatalf("WaitEnd = %d messages, %v; want %d", len(res.got), res.err, m.N)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.atEnd[0] != m.N-1 {
		t.Fatalf("p0's round ended with %d of its %d peers' Got events reported", obs.atEnd[0], m.N-1)
	}
}
