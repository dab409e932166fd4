package rounds_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"unidir/internal/core"
	"unidir/internal/rounds"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/trusted/swmr"
	"unidir/internal/types"
)

// mustMembership builds a membership or fails the test.
func mustMembership(t *testing.T, n, f int) types.Membership {
	t.Helper()
	m, err := types.NewMembership(n, f)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	return m
}

// newSWMRSystems builds one SWMR round system per process over a fresh
// local store, all observed by checker.
func newSWMRSystems(t *testing.T, m types.Membership, checker rounds.Observer) []rounds.System {
	t.Helper()
	store, err := swmr.NewStore(m)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	systems := make([]rounds.System, m.N)
	for i := 0; i < m.N; i++ {
		sys, err := rounds.NewSWMR(swmr.NewLocal(store, types.ProcessID(i)), m,
			rounds.WithObserver(checker))
		if err != nil {
			t.Fatalf("NewSWMR: %v", err)
		}
		systems[i] = sys
	}
	t.Cleanup(func() {
		for _, s := range systems {
			_ = s.Close()
		}
	})
	return systems
}

// runRounds drives every system through numRounds full Send+WaitEnd rounds
// concurrently, with per-process jitter from rng seed, and returns each
// process's per-round WaitEnd results.
func runRounds(t *testing.T, systems []rounds.System, numRounds int, seed int64) [][]map[types.ProcessID][]byte {
	t.Helper()
	results := make([][]map[types.ProcessID][]byte, len(systems))
	errs := make([]error, len(systems))
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func(i int, sys rounds.System) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)))
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for r := types.Round(1); r <= types.Round(numRounds); r++ {
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				data := []byte(fmt.Sprintf("p%d-r%d", i, r))
				if err := sys.Send(r, data); err != nil {
					errs[i] = err
					return
				}
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				got, err := sys.WaitEnd(ctx, r)
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = append(results[i], got)
			}
		}(i, sys)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	return results
}

// closeAll closes systems so final boundaries are reported to the checker.
func closeAll(systems []rounds.System) {
	for _, s := range systems {
		_ = s.Close()
	}
}

// --- E4: SWMR rounds are unidirectional ---

func TestSWMRUnidirectionalRandomSchedules(t *testing.T) {
	m := mustMembership(t, 5, 2)
	for seed := int64(0); seed < 8; seed++ {
		checker := core.NewUniChecker()
		systems := newSWMRSystems(t, m, checker)
		results := runRounds(t, systems, 6, seed)
		closeAll(systems)
		if v := checker.Violations(m.All()); len(v) != 0 {
			t.Fatalf("seed %d: unidirectionality violations: %v", seed, v)
		}
		// Every WaitEnd must at least contain the process's own message.
		for i, perRound := range results {
			for r, got := range perRound {
				if _, ok := got[types.ProcessID(i)]; !ok {
					t.Fatalf("p%d round %d: own message missing", i, r+1)
				}
			}
		}
	}
}

func TestSWMRDeliversContentCorrectly(t *testing.T) {
	m := mustMembership(t, 4, 1)
	checker := core.NewUniChecker()
	systems := newSWMRSystems(t, m, checker)
	results := runRounds(t, systems, 3, 42)
	for i, perRound := range results {
		for rIdx, got := range perRound {
			for from, data := range got {
				want := fmt.Sprintf("p%d-r%d", int(from), rIdx+1)
				if string(data) != want {
					t.Fatalf("p%d saw %q from %v in round %d, want %q", i, data, from, rIdx+1, want)
				}
			}
		}
	}
}

func TestSWMRStragglersReachRecvStream(t *testing.T) {
	m := mustMembership(t, 3, 1)
	store, err := swmr.NewStore(m)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	fast, err := rounds.NewSWMR(swmr.NewLocal(store, 0), m)
	if err != nil {
		t.Fatalf("NewSWMR: %v", err)
	}
	defer fast.Close()
	slow, err := rounds.NewSWMR(swmr.NewLocal(store, 1), m)
	if err != nil {
		t.Fatalf("NewSWMR: %v", err)
	}
	defer slow.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Fast process completes round 1 before slow even starts it.
	if err := fast.Send(1, []byte("early")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := fast.WaitEnd(ctx, 1); err != nil {
		t.Fatalf("WaitEnd: %v", err)
	}
	if err := slow.Send(1, []byte("late")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// The poller must surface the late write on fast's stream.
	for {
		msg, err := fast.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if msg.From == 1 && msg.Round == 1 && string(msg.Data) == "late" {
			return
		}
	}
}

func TestSWMRRoundOrderEnforced(t *testing.T) {
	m := mustMembership(t, 3, 1)
	systems := newSWMRSystems(t, m, nil)
	s := systems[0]
	ctx := context.Background()
	if _, err := s.WaitEnd(ctx, 1); !errors.Is(err, rounds.ErrRoundOrder) {
		t.Fatalf("WaitEnd before Send err = %v", err)
	}
	if err := s.Send(2, []byte("x")); err != nil {
		t.Fatalf("Send(2): %v", err)
	}
	if err := s.Send(2, []byte("again")); !errors.Is(err, rounds.ErrRoundOrder) {
		t.Fatalf("duplicate Send err = %v", err)
	}
	if err := s.Send(1, []byte("backwards")); !errors.Is(err, rounds.ErrRoundOrder) {
		t.Fatalf("backwards Send err = %v", err)
	}
	// Gaps are allowed.
	if err := s.Send(7, []byte("gap")); err != nil {
		t.Fatalf("Send(7): %v", err)
	}
}

func TestSWMRWorksOverRPCMemory(t *testing.T) {
	m := mustMembership(t, 3, 1)
	netM := mustMembership(t, 4, 1) // extra node hosts the memory server
	net, err := simnet.New(netM)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	store, err := swmr.NewStore(m)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	server := swmr.NewServer(store, net.Endpoint(3))
	defer server.Close()

	checker := core.NewUniChecker()
	systems := make([]rounds.System, m.N)
	var clients []*swmr.Client
	for i := 0; i < m.N; i++ {
		client := swmr.NewClient(net.Endpoint(types.ProcessID(i)), 3)
		clients = append(clients, client)
		sys, err := rounds.NewSWMR(client, m, rounds.WithObserver(checker))
		if err != nil {
			t.Fatalf("NewSWMR: %v", err)
		}
		systems[i] = sys
	}
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	runRounds(t, systems, 3, 7)
	closeAll(systems)
	if v := checker.Violations(m.All()); len(v) != 0 {
		t.Fatalf("violations over RPC memory: %v", v)
	}
}

// --- zero-directional baseline ---

func newAsyncSystems(t *testing.T, m types.Membership, net *simnet.Network, checker rounds.Observer) []rounds.System {
	t.Helper()
	systems := make([]rounds.System, m.N)
	for i := 0; i < m.N; i++ {
		sys, err := rounds.NewAsync(net.Endpoint(types.ProcessID(i)), m,
			rounds.WithObserver(checker))
		if err != nil {
			t.Fatalf("NewAsync: %v", err)
		}
		systems[i] = sys
	}
	t.Cleanup(func() { closeAll(systems) })
	return systems
}

func TestAsyncRoundsCompleteAndCollectQuorum(t *testing.T) {
	m := mustMembership(t, 5, 2)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	systems := newAsyncSystems(t, m, net, nil)
	results := runRounds(t, systems, 4, 11)
	for i, perRound := range results {
		for r, got := range perRound {
			if len(got) < m.Correct() {
				t.Fatalf("p%d round %d: %d messages, want >= %d", i, r+1, len(got), m.Correct())
			}
		}
	}
}

func TestAsyncToleratesSilentProcesses(t *testing.T) {
	m := mustMembership(t, 5, 2)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	systems := newAsyncSystems(t, m, net, nil)
	// Processes 3 and 4 crash (never send); the rest must still finish.
	live := systems[:3]
	results := runRounds(t, live, 3, 13)
	for i, perRound := range results {
		if len(perRound) != 3 {
			t.Fatalf("p%d completed %d rounds, want 3", i, len(perRound))
		}
	}
}

func TestAsyncViolatesUnidirectionalityUnderPartition(t *testing.T) {
	// The §4.1 geometry in miniature: C1={3}, C2={4} cannot talk to each
	// other, but both reach Q={0,1,2}. Everyone is correct; the async
	// (n-f)-quorum round discipline lets 3 and 4 finish their rounds without
	// ever hearing each other — a unidirectionality violation.
	m := mustMembership(t, 5, 2)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	net.BlockPair(3, 4)
	checker := core.NewUniChecker()
	systems := newAsyncSystems(t, m, net, checker)
	runRounds(t, systems, 1, 17)
	closeAll(systems)
	violations := checker.Violations(m.All())
	found := false
	for _, v := range violations {
		if (v.A == 3 && v.B == 4) || (v.A == 4 && v.B == 3) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a violation between p3 and p4, got %v", violations)
	}
}

// --- bidirectional (lock-step) ---

func TestLockstepIsBidirectional(t *testing.T) {
	m := mustMembership(t, 4, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	checker := core.NewUniChecker()
	systems := make([]rounds.System, m.N)
	for i := 0; i < m.N; i++ {
		sys, err := rounds.NewLockstep(net.Endpoint(types.ProcessID(i)), m,
			rounds.WithObserver(checker))
		if err != nil {
			t.Fatalf("NewLockstep: %v", err)
		}
		systems[i] = sys
	}
	defer closeAll(systems)
	results := runRounds(t, systems, 3, 23)
	// Bidirectionality: every process's WaitEnd contains *every* process's
	// message, every round.
	for i, perRound := range results {
		for r, got := range perRound {
			if len(got) != m.N {
				t.Fatalf("p%d round %d: %d messages, want %d", i, r+1, len(got), m.N)
			}
		}
	}
	closeAll(systems)
	if v := checker.Violations(m.All()); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestLockstepWithCrashedProcess(t *testing.T) {
	m := mustMembership(t, 4, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	live := []types.ProcessID{0, 1, 2} // p3 is crashed, known to the harness
	systems := make([]rounds.System, 3)
	for i := 0; i < 3; i++ {
		sys, err := rounds.NewLockstep(net.Endpoint(types.ProcessID(i)), m,
			rounds.WithLive(live))
		if err != nil {
			t.Fatalf("NewLockstep: %v", err)
		}
		systems[i] = sys
	}
	defer closeAll(systems)
	results := runRounds(t, systems, 2, 29)
	for i, perRound := range results {
		for r, got := range perRound {
			if len(got) != 3 {
				t.Fatalf("p%d round %d: %d messages, want 3", i, r+1, len(got))
			}
		}
	}
}

// --- E2: the f=1 corner case over reliable broadcast ---

func newRBF1Systems(t *testing.T, m types.Membership, net *simnet.Network, checker rounds.Observer) []rounds.System {
	t.Helper()
	rings, err := sig.NewKeyrings(m, sig.HMAC, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("NewKeyrings: %v", err)
	}
	systems := make([]rounds.System, m.N)
	for i := 0; i < m.N; i++ {
		sys, err := rounds.NewRBF1(net.Endpoint(types.ProcessID(i)), m, rings[i],
			rounds.WithObserver(checker))
		if err != nil {
			t.Fatalf("NewRBF1: %v", err)
		}
		systems[i] = sys
	}
	t.Cleanup(func() { closeAll(systems) })
	return systems
}

func TestRBF1UnidirectionalRandomSchedules(t *testing.T) {
	for _, n := range []int{3, 4, 6} {
		m := mustMembership(t, n, 1)
		for seed := int64(0); seed < 4; seed++ {
			net, err := simnet.New(m)
			if err != nil {
				t.Fatalf("simnet: %v", err)
			}
			checker := core.NewUniChecker()
			systems := newRBF1Systems(t, m, net, checker)
			runRounds(t, systems, 3, seed)
			closeAll(systems)
			if v := checker.Violations(m.All()); len(v) != 0 {
				t.Fatalf("n=%d seed=%d: violations: %v", n, seed, v)
			}
			net.Close()
		}
	}
}

func TestRBF1SurvivesDirectPartitionViaForwarding(t *testing.T) {
	// p0 and p1 never exchange a direct message; Q's phase-2 bundles must
	// carry at least one direction — the crux of the Appendix proof.
	m := mustMembership(t, 4, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	net.BlockPair(0, 1)
	checker := core.NewUniChecker()
	systems := newRBF1Systems(t, m, net, checker)
	runRounds(t, systems, 1, 31)
	closeAll(systems)
	if v := checker.Violations(m.All()); len(v) != 0 {
		t.Fatalf("violations despite forwarding: %v", v)
	}
	// And at least one direction really did flow through bundles.
	if !checker.GotByBoundary(0, 1, 1) && !checker.GotByBoundary(1, 0, 1) {
		t.Fatal("neither direction recorded")
	}
}

func TestRBF1ToleratesOneCrash(t *testing.T) {
	m := mustMembership(t, 4, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	systems := newRBF1Systems(t, m, net, nil)
	// p3 crashed: only 0..2 run; they wait for n-1 = 3 distinct in each
	// phase, which the three of them supply.
	live := systems[:3]
	results := runRounds(t, live, 2, 37)
	for i, perRound := range results {
		if len(perRound) != 2 {
			t.Fatalf("p%d completed %d rounds", i, len(perRound))
		}
	}
}

func TestRBF1RejectsWrongResilience(t *testing.T) {
	net, err := simnet.New(mustMembership(t, 5, 2))
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	m5 := mustMembership(t, 5, 2)
	rings, err := sig.NewKeyrings(m5, sig.HMAC, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("NewKeyrings: %v", err)
	}
	if _, err := rounds.NewRBF1(net.Endpoint(0), m5, rings[0]); err == nil {
		t.Fatal("f=2 accepted by rbf1")
	}
}

func TestRBF1IgnoresForgedValues(t *testing.T) {
	m := mustMembership(t, 3, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	checker := core.NewUniChecker()
	systems := newRBF1Systems(t, m, net, checker)
	// A Byzantine p2 injects a phase-1 message claiming to be from p1 but
	// with a bogus signature; p0 must not record it as p1's.
	forged := make([]byte, 0, 64)
	forged = append(forged, 1) // rbPhase1
	forged = append(forged, []byte{1, 0, 0, 0, 0, 0, 0, 0}...)
	forged = append(forged, []byte{5, 0, 0, 0}...)
	forged = append(forged, []byte("evil!")...)
	forged = append(forged, []byte{3, 0, 0, 0}...)
	forged = append(forged, []byte("sig")...)
	net.Inject(1, 0, forged)
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if msg, err := systems[0].Recv(ctx); err == nil {
		t.Fatalf("forged message surfaced: %+v", msg)
	}
}
