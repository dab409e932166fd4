// Figure 1 of the paper, checked end to end: every arrow of the implication
// diagram as internal/core encodes it (core.Edges) runs its construction or
// its counterexample live. `go test -run TestFigure1 -v .` prints the table.
package unidir_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"unidir/internal/core"
	"unidir/internal/harness"
	"unidir/internal/rounds"
	"unidir/internal/separation"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/transport"
	"unidir/internal/trusted/trincfromsrb"
	"unidir/internal/types"
)

// edgeKey identifies one arrow of Figure 1.
type edgeKey struct {
	from, to string
	kind     core.EdgeKind
}

// figure1Checks is the one place that says which live check backs which
// arrow of core.Edges(). A check returns nil when its arrow holds: for an
// Implements arrow the construction works, for a Cannot arrow the
// counterexample is exhibited.
var figure1Checks = map[edgeKey]func() error{
	{core.NodeSharedMemory, core.NodeUnidirectional, core.Implements}:  checkSWMRRounds,
	{core.NodeUnidirectional, core.NodeSRB, core.Implements}:           checkUniroundSRB,
	{core.NodeTrustedLogs, core.NodeSRB, core.Implements}:              checkTrincSRB,
	{core.NodeSRB, core.NodeTrInc, core.Implements}:                    checkTrincFromSRB,
	{core.NodeSRB, core.NodeUnidirectional, core.Cannot}:               checkSeparation,
	{core.NodeRB, core.NodeUnidirectional, core.Implements}:            checkRBF1,
	{core.NodeBidirectional, core.NodeUnidirectional, core.Implements}: checkLockstep,
	{core.NodeUnidirectional, core.NodeZero, core.Implements}:          checkUniSubsumesZero,
}

func TestFigure1(t *testing.T) {
	edges := core.Edges()
	seen := make(map[edgeKey]bool, len(edges))
	for _, e := range edges {
		k := edgeKey{e.From, e.To, e.Kind}
		if seen[k] {
			t.Errorf("edge %q -> %q listed twice", e.From, e.To)
		}
		seen[k] = true
		if figure1Checks[k] == nil {
			t.Errorf("edge %q -> %q has no check", e.From, e.To)
		}
	}
	for k := range figure1Checks {
		if !seen[k] {
			t.Errorf("check for %q -> %q has no edge in core.Edges()", k.from, k.to)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for _, e := range edges {
		arrow, status := "==>", "PASS"
		if e.Kind == core.Cannot {
			arrow, status = "=X=>", "PASS (violation exhibited)"
		}
		if err := figure1Checks[edgeKey{e.From, e.To, e.Kind}](); err != nil {
			t.Errorf("%s %s %s: %v", e.From, arrow, e.To, err)
			status = "FAIL"
		}
		t.Logf("%-51s %-4s %-42s %-15s [%s]  %s", e.From, arrow, e.To, e.Resilience, status, e.Witness)
	}
}

// checkSWMRRounds: write-then-scan rounds over SWMR registers are
// unidirectional under randomized schedules (Claim 3.2). Overlaps
// separation.TestSWMRControlArmHasNoViolations and
// rounds.TestSWMRUnidirectionalRandomSchedules.
func checkSWMRRounds() error {
	violations, err := separation.RunSWMRControl(harness.MustMembership(5, 2), 3, 1)
	if err != nil {
		return err
	}
	if len(violations) != 0 {
		return fmt.Errorf("violations: %v", violations)
	}
	return nil
}

// checkUniroundSRB: Algorithm 1 delivers over SWMR rounds at n = 2t+1, the
// tightest size it accepts. Overlaps
// srb.TestAllImplsSatisfySRBProperties/uniround.
func checkUniroundSRB() error {
	return checkSRBDelivery(harness.BuildUniroundCluster, harness.MustMembership(5, 2))
}

// checkTrincSRB: an attested counter chain with relay delivers at n > f.
// Overlaps srb.TestAllImplsSatisfySRBProperties/trincsrb.
func checkTrincSRB() error {
	return checkSRBDelivery(harness.BuildTrincCluster, harness.MustMembership(4, 1))
}

// checkSRBDelivery builds an SRB node set, broadcasts one message from p0
// and waits until every node delivers it as p0's first message.
func checkSRBDelivery(build func(types.Membership, sig.Scheme) (*harness.SRBCluster, error), m types.Membership) error {
	c, err := build(m, sig.HMAC)
	if err != nil {
		return err
	}
	defer c.Stop()
	seq, err := c.Nodes[0].Broadcast([]byte("f1-check"))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for _, n := range c.Nodes {
		d, err := n.Deliver(ctx)
		if err != nil {
			return fmt.Errorf("%v never delivered: %w", n.Self(), err)
		}
		if d.Sender != 0 || d.Seq != seq || string(d.Data) != "f1-check" {
			return fmt.Errorf("%v delivered %+v, want (p0, %d, f1-check)", n.Self(), d, seq)
		}
	}
	return nil
}

// checkTrincFromSRB: Theorem 1 over Bracha, an SRB with no hardware at all.
// An attestation validates at every trinket, and the same counter value
// attested again validates at none. Overlaps the trincfromsrb suite
// (TestCorrectAttestationValidatesEverywhere,
// TestReusedCounterValueNeverValidates).
func checkTrincFromSRB() error {
	m := harness.MustMembership(4, 1)
	c, err := harness.BuildBrachaCluster(m, sig.HMAC)
	if err != nil {
		return err
	}
	defer c.Stop()
	trinkets := make([]*trincfromsrb.Trinket, m.N)
	for i, n := range c.Nodes {
		trinkets[i] = trincfromsrb.New(n)
		defer trinkets[i].Close()
	}
	first, err := trinkets[0].Attest(1, []byte("f1"))
	if err != nil {
		return err
	}
	reused, err := trinkets[0].Attest(1, []byte("f1-reused"))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for _, tk := range trinkets {
		if err := tk.WaitAttestation(ctx, first, 0); err != nil {
			return fmt.Errorf("%v: first attestation: %w", tk.Self(), err)
		}
		if err := tk.WaitAttestation(ctx, reused, 0); !errors.Is(err, trincfromsrb.ErrNotAttested) {
			return fmt.Errorf("%v: reused counter value: err = %v, want ErrNotAttested", tk.Self(), err)
		}
	}
	return nil
}

// checkSeparation: §4.1's scenario 3 at the paper's (5,2). Every process
// completes round 1, yet C1 and a member of C2 end it without hearing each
// other. Scenario 1 cannot pass this check: C1 is crashed there. Overlaps
// separation.TestScenario3ProducesViolation.
func checkSeparation() error {
	m := harness.MustMembership(5, 2)
	g, err := separation.NewGeometry(m)
	if err != nil {
		return err
	}
	out, err := separation.RunScenario(m, 3, 10*time.Second)
	if err != nil {
		return err
	}
	for _, id := range m.All() {
		if !out.Completed[id] {
			return fmt.Errorf("%v did not complete round 1 (completed: %v)", id, out.Completed)
		}
	}
	for _, v := range out.Violations {
		for _, c2 := range g.C2 {
			if (v.A == g.C1 && v.B == c2) || (v.A == c2 && v.B == g.C1) {
				return nil
			}
		}
	}
	return fmt.Errorf("no violation between C1 and C2; violations: %v", out.Violations)
}

// checkRBF1: the Appendix's two-phase sign-and-forward rounds over reliable
// links are unidirectional at f = 1, n = 3. Overlaps
// rounds.TestRBF1UnidirectionalRandomSchedules.
func checkRBF1() error {
	m := harness.MustMembership(3, 1)
	rings, err := sig.NewKeyrings(m, sig.HMAC, rand.New(rand.NewSource(5)))
	if err != nil {
		return err
	}
	checker, _, err := oneRound(m, func(tr transport.Transport, obs rounds.Observer) (rounds.System, error) {
		return rounds.NewRBF1(tr, m, rings[tr.Self()], rounds.WithRBF1Observer(obs))
	})
	if err != nil {
		return err
	}
	if v := checker.Violations(m.All()); len(v) != 0 {
		return fmt.Errorf("violations: %v", v)
	}
	return nil
}

// checkLockstep: lock-step rounds are bidirectional (every process ends
// the round holding every other's message, the slow link's included), so
// they are unidirectional too. Overlaps rounds.TestLockstepIsBidirectional.
func checkLockstep() error {
	m := harness.MustMembership(4, 1)
	checker, ended, err := oneRound(m, func(tr transport.Transport, obs rounds.Observer) (rounds.System, error) {
		return rounds.NewLockstep(tr, m, rounds.WithLockstepObserver(obs))
	})
	if err != nil {
		return err
	}
	for p, got := range ended {
		if len(got) != m.N {
			return fmt.Errorf("%v ended round 1 with %d messages, want %d", p, len(got), m.N)
		}
	}
	if v := checker.Violations(m.All()); len(v) != 0 {
		return fmt.Errorf("violations: %v", v)
	}
	return nil
}

// checkUniSubsumesZero: unidirectional rounds give everything
// zero-directional rounds do, and not the other way round. Overlaps
// core.TestClassSubsumption.
func checkUniSubsumesZero() error {
	uni, err := core.NodeByName(core.NodeUnidirectional)
	if err != nil {
		return err
	}
	zero, err := core.NodeByName(core.NodeZero)
	if err != nil {
		return err
	}
	if !uni.Class.Subsumes(zero.Class) || zero.Class.Subsumes(uni.Class) {
		return fmt.Errorf("class order wrong: %v vs %v", uni.Class, zero.Class)
	}
	return nil
}

// oneRound runs round 1 of the system build makes for each member of m,
// every process sending, over a fresh simulated network that delays every
// message from the last member to p0: a round that may end on a quorum ends
// p0's without it. It returns the checker that observed the round and what
// each process's WaitEnd returned. The systems are closed before it
// returns, and closing is what reports each round-1 boundary to the
// checker.
func oneRound(m types.Membership, build func(transport.Transport, rounds.Observer) (rounds.System, error)) (
	*core.UniChecker, map[types.ProcessID]map[types.ProcessID][]byte, error) {
	net, err := simnet.New(m)
	if err != nil {
		return nil, nil, err
	}
	defer net.Close()
	net.SetLinkDelay(types.ProcessID(m.N-1), 0, 20*time.Millisecond)
	checker := core.NewUniChecker()
	systems := make([]rounds.System, 0, m.N)
	defer func() {
		for _, s := range systems {
			_ = s.Close()
		}
	}()
	for _, id := range m.All() {
		s, err := build(net.Endpoint(id), checker)
		if err != nil {
			return nil, nil, err
		}
		systems = append(systems, s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	type result struct {
		id  types.ProcessID
		got map[types.ProcessID][]byte
		err error
	}
	results := make(chan result, len(systems))
	for i, s := range systems {
		go func(id types.ProcessID, s rounds.System) {
			if err := s.Send(1, []byte{byte(id)}); err != nil {
				results <- result{id: id, err: err}
				return
			}
			got, err := s.WaitEnd(ctx, 1)
			results <- result{id, got, err}
		}(types.ProcessID(i), s)
	}
	ended := make(map[types.ProcessID]map[types.ProcessID][]byte, len(systems))
	for range systems {
		r := <-results
		if r.err != nil {
			return nil, nil, fmt.Errorf("%v: %w", r.id, r.err)
		}
		ended[r.id] = r.got
	}
	return checker, ended, nil
}
