package rounds_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unidir/internal/core"
	"unidir/internal/rounds"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/transport"
	"unidir/internal/trusted/swmr"
	"unidir/internal/types"
)

// TestRunnerConcurrentCallers drives every Runner entry point from its own
// goroutines while the runner goroutine receives: per process, a round
// goroutine (Send, then two concurrent WaitEnds of the same round), an aux
// sender and a Recv consumer. Each round ends with every live message, and
// the stream carries every peer message exactly once.
func TestRunnerConcurrentCallers(t *testing.T) {
	const numRounds, aux = 20, 10
	m := mustMembership(t, 4, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	checker := core.NewUniChecker()
	systems := make([]rounds.System, m.N)
	for i := range systems {
		if systems[i], err = rounds.NewLockstep(net.Endpoint(types.ProcessID(i)), m, rounds.WithObserver(checker)); err != nil {
			t.Fatal(err)
		}
	}
	defer closeAll(systems)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(3)
		go func(i int, sys rounds.System) {
			defer wg.Done()
			for r := types.Round(1); r <= numRounds; r++ {
				if err := sys.Send(r, []byte(fmt.Sprintf("p%d-r%d", i, r))); err != nil {
					t.Errorf("p%d: Send(%d): %v", i, r, err)
					return
				}
				var ends sync.WaitGroup
				for w := 0; w < 2; w++ {
					ends.Add(1)
					go func() {
						defer ends.Done()
						got, err := sys.WaitEnd(ctx, r)
						if err != nil || len(got) != m.N {
							t.Errorf("p%d: WaitEnd(%d) = %d messages, %v", i, r, len(got), err)
						}
					}()
				}
				ends.Wait()
			}
		}(i, sys)
		go func(i int, sys rounds.System) {
			defer wg.Done()
			for j := 0; j < aux; j++ {
				if err := sys.SendAux([]byte(fmt.Sprintf("aux-%d", j))); err != nil {
					t.Errorf("p%d: SendAux: %v", i, err)
					return
				}
			}
		}(i, sys)
		go func(i int, sys rounds.System) {
			defer wg.Done()
			seen := make(map[[2]int]bool)
			auxes := 0
			for len(seen)+auxes < (m.N-1)*(numRounds+aux) {
				msg, err := sys.Recv(ctx)
				if err != nil {
					t.Errorf("p%d: Recv: %v", i, err)
					return
				}
				if msg.Round == rounds.AuxRound {
					auxes++
					continue
				}
				key := [2]int{int(msg.From), int(msg.Round)}
				if seen[key] {
					t.Errorf("p%d: %v's round %d streamed twice", i, msg.From, msg.Round)
				}
				seen[key] = true
			}
		}(i, sys)
	}
	wg.Wait()
	closeAll(systems)
	if v := checker.Violations(m.All()); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestRunnerCloseUnblocks: Close returns while a WaitEnd and a Recv are
// blocked on a runner of each medium, both then fail with ErrClosed, and so
// does every later call but a second Close.
func TestRunnerCloseUnblocks(t *testing.T) {
	m := mustMembership(t, 5, 2)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	async, err := rounds.NewAsync(net.Endpoint(0), m)
	if err != nil {
		t.Fatal(err)
	}
	// An Async round waits for n-f messages that never come; an SWMR round
	// ends on its own scan, so only its Recv blocks.
	for _, tc := range []struct {
		name    string
		sys     rounds.System
		blocked int
	}{{"async", async, 2}, {"swmr", newSWMRSystems(t, m, nil)[0], 1}} {
		sys := tc.sys
		t.Run(tc.name, func(t *testing.T) {
			if err := sys.Send(1, []byte("alone")); err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, 2)
			go func() {
				_, err := sys.Recv(context.Background())
				errs <- err
			}()
			if tc.blocked == 2 {
				go func() {
					_, err := sys.WaitEnd(context.Background(), 1)
					errs <- err
				}()
			}
			// Let the calls block first; either way they must fail with
			// ErrClosed.
			time.Sleep(20 * time.Millisecond)
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.blocked; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, rounds.ErrClosed) {
						t.Fatalf("blocked call returned %v, want ErrClosed", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a blocked call outlived Close")
				}
			}
			if err := sys.Send(2, nil); !errors.Is(err, rounds.ErrClosed) {
				t.Fatalf("Send after Close = %v", err)
			}
			if err := sys.SendAux(nil); !errors.Is(err, rounds.ErrClosed) {
				t.Fatalf("SendAux after Close = %v", err)
			}
			if _, err := sys.WaitEnd(context.Background(), 1); !errors.Is(err, rounds.ErrClosed) {
				t.Fatalf("WaitEnd after Close = %v", err)
			}
			if err := sys.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

var errInjected = errors.New("injected write failure")

// failingMemory is a memory whose appends fail while fail is set.
type failingMemory struct {
	swmr.Memory
	fail bool
}

func (f *failingMemory) Append(val []byte) error {
	if f.fail {
		return errInjected
	}
	return f.Memory.Append(val)
}

// sentRecorder records the rounds reported sent.
type sentRecorder struct{ sent []types.Round }

func (o *sentRecorder) Sent(_ types.ProcessID, r types.Round)             { o.sent = append(o.sent, r) }
func (o *sentRecorder) Got(types.ProcessID, types.ProcessID, types.Round) {}
func (o *sentRecorder) Boundary(types.ProcessID, types.Round)             {}

// TestRunnerFailedSendEntersNoRound: an SWMR Send whose append fails leaves
// the round unsent — WaitEnd refuses it and nothing is reported — and the
// same Send succeeds once the memory works again.
func TestRunnerFailedSendEntersNoRound(t *testing.T) {
	m := mustMembership(t, 3, 1)
	store, err := swmr.NewStore(m)
	if err != nil {
		t.Fatal(err)
	}
	mem := &failingMemory{Memory: swmr.NewLocal(store, 0), fail: true}
	obs := &sentRecorder{}
	sys, err := rounds.NewSWMR(mem, m, rounds.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	if err := sys.Send(1, []byte("v")); !errors.Is(err, errInjected) {
		t.Fatalf("Send with a failing append = %v", err)
	}
	if _, err := sys.WaitEnd(ctx, 1); !errors.Is(err, rounds.ErrRoundOrder) {
		t.Fatalf("WaitEnd of a failed Send = %v, want ErrRoundOrder", err)
	}
	if len(obs.sent) != 0 {
		t.Fatalf("failed Send reported as sent: rounds %v", obs.sent)
	}
	mem.fail = false
	if err := sys.Send(1, []byte("v")); err != nil {
		t.Fatalf("retried Send: %v", err)
	}
	got, err := sys.WaitEnd(ctx, 1)
	if err != nil || string(got[0]) != "v" {
		t.Fatalf("WaitEnd after retry = %q, %v", got, err)
	}
}

// failingTransport fails every send after the first ok.
type failingTransport struct {
	transport.Transport
	ok, sends atomic.Int32
}

func (f *failingTransport) Send(to types.ProcessID, payload []byte) error {
	if f.sends.Add(1) > f.ok.Load() {
		return errInjected
	}
	return f.Transport.Send(to, payload)
}

// TestRunnerFailedBundleFailsRunner: a write the core cannot take back — an
// RBF1 phase-2 bundle, sent from whichever step completes phase 1 — fails
// the runner, and every later call returns the error.
func TestRunnerFailedBundleFailsRunner(t *testing.T) {
	m := mustMembership(t, 3, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	rings, err := sig.NewKeyrings(m, sig.HMAC, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	// p0's phase-1 broadcast (n-1 = 2 sends) goes out; its bundle does not.
	tr := &failingTransport{Transport: net.Endpoint(0)}
	tr.ok.Store(int32(m.N - 1))
	systems := make([]rounds.System, m.N)
	for i := range systems {
		var t0 transport.Transport = net.Endpoint(types.ProcessID(i))
		if i == 0 {
			t0 = tr
		}
		if systems[i], err = rounds.NewRBF1(t0, m, rings[i]); err != nil {
			t.Fatal(err)
		}
	}
	defer closeAll(systems)
	for i, sys := range systems {
		if err := sys.Send(1, []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatalf("p%d: Send: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p0 := systems[0]
	if _, err := p0.WaitEnd(ctx, 1); !errors.Is(err, errInjected) {
		t.Fatalf("WaitEnd with a failed bundle = %v", err)
	}
	if err := p0.Send(2, nil); !errors.Is(err, errInjected) {
		t.Fatalf("Send after the failure = %v", err)
	}
	if err := p0.SendAux(nil); !errors.Is(err, errInjected) {
		t.Fatalf("SendAux after the failure = %v", err)
	}
	for {
		if _, err := p0.Recv(ctx); err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("Recv after the failure = %v", err)
			}
			break
		}
	}
	if err := p0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p0.Send(2, nil); !errors.Is(err, rounds.ErrClosed) {
		t.Fatalf("Send after Close = %v", err)
	}
}

// slowSend is a transport whose every send takes delay before the message
// leaves, as on a congested link.
type slowSend struct {
	transport.Transport
	delay time.Duration
}

func (s slowSend) Send(to types.ProcessID, payload []byte) error {
	time.Sleep(s.delay)
	return s.Transport.Send(to, payload)
}

// TestDeltaSyncWaitStartsAfterBroadcast: two DeltaSync processes send
// concurrently over links that take longer to send on than the round's wait,
// each message then arriving within delta < wait. A round measured from the
// write hears the other process; one measured from the Send call is over
// before either message leaves, and neither hears the other.
func TestDeltaSyncWaitStartsAfterBroadcast(t *testing.T) {
	const slow, delta, wait = 200 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond
	m := mustMembership(t, 2, 0)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.SetLinkDelay(0, 1, delta)
	net.SetLinkDelay(1, 0, delta)
	systems := make([]rounds.System, m.N)
	for i := range systems {
		tr := slowSend{Transport: net.Endpoint(types.ProcessID(i)), delay: slow}
		if systems[i], err = rounds.NewDeltaSync(tr, m, wait); err != nil {
			t.Fatal(err)
		}
	}
	defer closeAll(systems)
	got := make([]map[types.ProcessID][]byte, m.N)
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func(i int, sys rounds.System) {
			defer wg.Done()
			if err := sys.Send(1, []byte("v")); err != nil {
				t.Errorf("p%d: Send: %v", i, err)
				return
			}
			var err error
			if got[i], err = sys.WaitEnd(context.Background(), 1); err != nil {
				t.Errorf("p%d: WaitEnd: %v", i, err)
			}
		}(i, sys)
	}
	wg.Wait()
	if _, ok := got[0][1]; !ok {
		if _, ok := got[1][0]; !ok {
			t.Fatalf("neither process heard the other: %v, %v", got[0], got[1])
		}
	}
}

func TestWithLiveOnlyForLockstep(t *testing.T) {
	m := mustMembership(t, 3, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := rounds.NewAsync(net.Endpoint(0), m, rounds.WithLive(m.All())); err == nil {
		t.Fatal("NewAsync accepted WithLive")
	}
	if _, err := rounds.NewDeltaSync(net.Endpoint(0), m, time.Millisecond, rounds.WithLive(m.All())); err == nil {
		t.Fatal("NewDeltaSync accepted WithLive")
	}
}
