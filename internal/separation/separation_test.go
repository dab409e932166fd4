package separation

import (
	"errors"
	"testing"
	"time"

	"unidir/internal/core"
	"unidir/internal/simnet"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
	"unidir/internal/wire"
)

func membership(t *testing.T, n, f int) types.Membership {
	t.Helper()
	m, err := types.NewMembership(n, f)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	return m
}

func TestGeometry(t *testing.T) {
	m := membership(t, 5, 2)
	g, err := NewGeometry(m)
	if err != nil {
		t.Fatalf("NewGeometry: %v", err)
	}
	if len(g.Q) != 3 || g.C1 != 3 || len(g.C2) != 1 || g.C2[0] != 4 {
		t.Fatalf("geometry = %+v", g)
	}
}

func TestGeometryRejectsOutOfRegime(t *testing.T) {
	for _, nf := range [][2]int{{3, 1}, {4, 1}, {4, 2}, {6, 3}} {
		m := membership(t, nf[0], nf[1])
		if _, err := NewGeometry(m); !errors.Is(err, ErrGeometry) {
			t.Fatalf("NewGeometry(n=%d,f=%d) err = %v, want ErrGeometry", nf[0], nf[1], err)
		}
	}
}

// checkScenario1 asserts what §4.1 claims of scenario 1 (Q = {0,1,2},
// C1 = 3 crashed, C2 = {4}, C2 → Q delayed): liveness — Q and C2 complete
// the round without hearing C1. It claims nothing about unidirectionality:
// the strawman is not unidirectional, which is the theorem. No Q member ever
// hears p4, and p4 ends its round on n−f = 3 messages, its own and two of
// Q's, so a Q member whose message reaches p4 only after that forms a
// genuine violation with p4. Every violation must therefore lie on the
// delayed link C2 × Q, or involve C1.
func checkScenario1(t *testing.T, out ScenarioOutcome) {
	t.Helper()
	for _, id := range []types.ProcessID{0, 1, 2, 4} {
		if !out.Completed[id] {
			t.Fatalf("%v did not complete round 1 (completed: %v)", id, out.Completed)
		}
	}
	for _, v := range out.Violations {
		onDelayedLink := (v.A <= 2 && v.B == 4) || (v.B <= 2 && v.A == 4)
		if !onDelayedLink && v.A != 3 && v.B != 3 {
			t.Fatalf("violation off the delayed link C2 × Q: %v", v)
		}
	}
}

func TestScenario1LivenessWithoutHearingC1(t *testing.T) {
	out, err := RunScenario(membership(t, 5, 2), 1, 10*time.Second)
	if err != nil {
		t.Fatalf("RunScenario(1): %v", err)
	}
	checkScenario1(t, out)
}

// The race of scenario 1, both ways round: does the last of Q's round
// messages reach p4 before p4's round ends?

// delayed reports whether the adversary of scenario 1 holds p back (C2 → Q).
func delayed(p simnet.Pending) bool { return p.From == 4 && p.To <= 2 }

// origin is the process whose round message a trincsrb frame carries: a
// relay carries its original sender's attestation.
func origin(payload []byte) types.ProcessID {
	att, err := trinc.DecodeAttestation(wire.NewDecoder(payload).BytesField())
	if err != nil {
		return -1
	}
	return att.Trinket
}

// releaseUntil delivers the held messages pass admits until done holds (or a
// bound passes, and the run's completion check reports what is missing).
func releaseUntil(s schedule, pass func(simnet.Pending) bool, done func() bool) {
	for deadline := time.Now().Add(5 * time.Second); !done() && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		s.net.ReleaseWhere(pass)
	}
}

// heard reports whether p holds the round message of every process in qs.
func heard(s schedule, p types.ProcessID, qs ...types.ProcessID) bool {
	for _, q := range qs {
		if q != p && !s.checker.GotEver(p, q, 1) {
			return false
		}
	}
	return true
}

func TestScenario1RaceC2HearsAllOfQ(t *testing.T) {
	out, err := runScenario(membership(t, 5, 2), 1, 10*time.Second, func(s schedule) {
		s.begin(0)
		s.begin(1)
		s.begin(2)
		// p4 is slow: Q's three messages all reach it before it sends, so its
		// round ends having heard every member of Q.
		releaseUntil(s, func(p simnet.Pending) bool { return !delayed(p) }, func() bool {
			return heard(s, 0, 1, 2) && heard(s, 1, 0, 2) && heard(s, 2, 0, 1) && heard(s, 4, 0, 1, 2)
		})
		s.begin(4)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkScenario1(t, out)
	if len(out.Violations) != 0 {
		t.Fatalf("p4 heard all of Q, yet: %v", out.Violations)
	}
}

func TestScenario1RaceC2MissesOneOfQ(t *testing.T) {
	out, err := runScenario(membership(t, 5, 2), 1, 10*time.Second, func(s schedule) {
		for _, id := range []types.ProcessID{0, 1, 2, 4} {
			s.begin(id)
		}
		// p2's round message, direct or relayed, reaches p4 only after p4's
		// round is over: here, never.
		releaseUntil(s, func(p simnet.Pending) bool { return !delayed(p) && !(p.To == 4 && origin(p.Payload) == 2) },
			func() bool { return heard(s, 0, 1, 2) && heard(s, 1, 0, 2) && heard(s, 2, 0, 1) && heard(s, 4, 0, 1) })
	})
	if err != nil {
		t.Fatal(err)
	}
	checkScenario1(t, out)
	if len(out.Violations) != 1 || out.Violations[0] != (core.Violation{A: 2, B: 4, Round: 1}) {
		t.Fatalf("violations %v, want exactly p2–p4 on the delayed link", out.Violations)
	}
}

func TestScenario2LivenessWithoutHearingC2(t *testing.T) {
	m := membership(t, 5, 2)
	out, err := RunScenario(m, 2, 10*time.Second)
	if err != nil {
		t.Fatalf("RunScenario(2): %v", err)
	}
	for _, id := range []types.ProcessID{0, 1, 2, 3} {
		if !out.Completed[id] {
			t.Fatalf("%v did not complete round 1 (completed: %v)", id, out.Completed)
		}
	}
}

func TestScenario3ProducesViolation(t *testing.T) {
	// The heart of §4.1: everyone is correct, C1 and C2 both complete the
	// round (they cannot distinguish this world from scenarios 2 and 1
	// respectively), yet neither heard the other.
	m := membership(t, 5, 2)
	out, err := RunScenario(m, 3, 10*time.Second)
	if err != nil {
		t.Fatalf("RunScenario(3): %v", err)
	}
	for _, id := range []types.ProcessID{0, 1, 2, 3, 4} {
		if !out.Completed[id] {
			t.Fatalf("%v did not complete round 1 (completed: %v)", id, out.Completed)
		}
	}
	found := false
	for _, v := range out.Violations {
		if (v.A == 3 && v.B == 4) || (v.A == 4 && v.B == 3) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no violation between C1=p3 and C2=p4; violations: %v", out.Violations)
	}
}

func TestSWMRControlArmHasNoViolations(t *testing.T) {
	m := membership(t, 5, 2)
	violations, err := RunSWMRControl(m, 10, 7)
	if err != nil {
		t.Fatalf("RunSWMRControl: %v", err)
	}
	if len(violations) != 0 {
		t.Fatalf("SWMR rounds violated unidirectionality: %v", violations)
	}
}

func TestFullExperiment(t *testing.T) {
	m := membership(t, 7, 3) // bigger geometry: Q={0..3}, C1=4, C2={5,6}
	res, err := Run(m, 15*time.Second, 3)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Scenario3.Violations) == 0 {
		t.Fatal("scenario 3 produced no violations")
	}
	if len(res.SWMRViolations) != 0 {
		t.Fatalf("control arm violations: %v", res.SWMRViolations)
	}
	// In the larger geometry every C1-C2 pair is violated.
	pairs := 0
	for _, v := range res.Scenario3.Violations {
		if v.A == 4 || v.B == 4 {
			pairs++
		}
	}
	if pairs < 2 {
		t.Fatalf("expected violations between C1 and both C2 members, got %v", res.Scenario3.Violations)
	}
}
