package rounds_test

import (
	"context"
	"testing"
	"time"

	"unidir/internal/core"
	"unidir/internal/rounds"
	"unidir/internal/simnet"
	"unidir/internal/types"
)

// newDeltaSystems builds DeltaSync systems over a network whose delays are
// bounded by delta (via jitter).
func newDeltaSystems(t *testing.T, m types.Membership, delta, wait time.Duration, seed int64, checker rounds.Observer) ([]rounds.System, *simnet.Network) {
	t.Helper()
	net, err := simnet.New(m, simnet.WithJitter(delta, seed))
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	systems := make([]rounds.System, m.N)
	for i := 0; i < m.N; i++ {
		systems[i], err = rounds.NewDeltaSync(net.Endpoint(types.ProcessID(i)), m, wait,
			rounds.WithObserver(checker))
		if err != nil {
			t.Fatalf("NewDeltaSync: %v", err)
		}
	}
	t.Cleanup(func() {
		for _, s := range systems {
			_ = s.Close()
		}
		net.Close()
	})
	return systems, net
}

func TestDeltaSyncUnidirectionalWhenWaitCoversDelta(t *testing.T) {
	// Delays bounded by delta, rounds wait 3x delta (comfortable margin for
	// scheduler noise): the unidirectionality predicate must hold across
	// randomized schedules. This is the paper's "Δ-synchrony provides
	// unidirectionality" claim.
	m := mustMembership(t, 4, 1)
	const delta = 2 * time.Millisecond
	for seed := int64(0); seed < 3; seed++ {
		checker := core.NewUniChecker()
		systems, _ := newDeltaSystems(t, m, delta, 3*delta, seed, checker)
		runRounds(t, systems, 3, seed)
		for _, s := range systems {
			_ = s.Close()
		}
		if v := checker.Violations(m.All()); len(v) != 0 {
			t.Fatalf("seed %d: violations under bounded delay: %v", seed, v)
		}
	}
}

func TestDeltaSyncRoundsComplete(t *testing.T) {
	m := mustMembership(t, 3, 1)
	systems, _ := newDeltaSystems(t, m, time.Millisecond, 4*time.Millisecond, 7, nil)
	results := runRounds(t, systems, 2, 7)
	for i, perRound := range results {
		if len(perRound) != 2 {
			t.Fatalf("p%d completed %d rounds", i, len(perRound))
		}
		// Every process hears itself at minimum; with wait >> delta it
		// almost surely hears everyone, but only self is guaranteed.
		for r, got := range perRound {
			if _, ok := got[types.ProcessID(i)]; !ok {
				t.Fatalf("p%d round %d missing own message", i, r+1)
			}
		}
	}
}

func TestDeltaSyncPropertyVoidWhenPremiseBroken(t *testing.T) {
	// Negative control: with a blocked link (delay unbounded — the model's
	// premise broken), the property fails between the partitioned pair.
	// Unlike shared memory, Δ-synchrony is an *assumption about the
	// network*, and this is the measurable difference.
	m := mustMembership(t, 3, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	net.BlockPair(0, 1)
	checker := core.NewUniChecker()
	systems := make([]rounds.System, m.N)
	for i := 0; i < m.N; i++ {
		systems[i], err = rounds.NewDeltaSync(net.Endpoint(types.ProcessID(i)), m, 5*time.Millisecond,
			rounds.WithObserver(checker))
		if err != nil {
			t.Fatalf("NewDeltaSync: %v", err)
		}
		defer systems[i].Close()
	}
	runRounds(t, systems, 1, 13)
	for _, s := range systems {
		_ = s.Close()
	}
	violations := checker.Violations(m.All())
	found := false
	for _, v := range violations {
		if (v.A == 0 && v.B == 1) || (v.A == 1 && v.B == 0) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected violation between p0 and p1, got %v", violations)
	}
}

func TestDeltaSyncValidation(t *testing.T) {
	m := mustMembership(t, 3, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	if _, err := rounds.NewDeltaSync(net.Endpoint(0), m, 0); err == nil {
		t.Fatal("zero wait accepted")
	}
	if _, err := rounds.NewDeltaSync(net.Endpoint(0), m, -time.Second); err == nil {
		t.Fatal("negative wait accepted")
	}
}

func TestDeltaSyncWaitEndRespectsContext(t *testing.T) {
	m := mustMembership(t, 2, 0)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	sys, err := rounds.NewDeltaSync(net.Endpoint(0), m, time.Hour)
	if err != nil {
		t.Fatalf("NewDeltaSync: %v", err)
	}
	defer sys.Close()
	if err := sys.Send(1, []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := sys.WaitEnd(ctx, 1); err == nil {
		t.Fatal("WaitEnd returned before the hour was up")
	}
}
