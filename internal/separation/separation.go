// Package separation makes the paper's impossibility result (§4.1)
// executable: sequenced reliable broadcast cannot implement unidirectional
// rounds for n > 2f, f > 1, under asynchrony.
//
// The experiment instantiates the proof's geometry. Processes are split
// into Q (|Q| = n-f), C1 (|C1| = 1), and C2 (|C2| = f-1), and the natural
// "rounds from SRB" protocol — rounds.Async over an SRB node: broadcast
// your round message through SRB, end the round after delivering
// round messages from n-f distinct processes (the most any process may
// block on under asynchrony) — is driven through the three scenarios:
//
//	Scenario 1: C1 crashed; C2→Q links delayed indefinitely. Q and C2 must
//	            finish the round (from their view, C1 and C2 could be the
//	            f faults). C2 finishes without hearing C1.
//	Scenario 2: C2 crashed; C1→Q links delayed. Q and C1 must finish;
//	            C1 finishes without hearing C2.
//	Scenario 3: nobody is faulty; all links out of C1 and C2 are delayed.
//	            Indistinguishable from scenario 1 to C2 and Q, from
//	            scenario 2 to C1 — so C1 and C2 both finish the round
//	            without hearing each other: a unidirectionality violation
//	            between two correct processes.
//
// The control arm runs the SWMR round protocol (Claim §3.2) under
// adversarial schedules and confirms zero violations: shared-memory
// hardware is immune to the partition that defeats every eventual-delivery
// medium, which is exactly the separation.
package separation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"unidir/internal/core"
	"unidir/internal/rounds"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/srb"
	"unidir/internal/srb/trincsrb"
	"unidir/internal/transport"
	"unidir/internal/trusted/swmr"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

// ErrGeometry reports an (n, f) outside the impossibility's regime.
var ErrGeometry = errors.New("separation: requires n > 2f and f > 1")

// Geometry is the proof's partition of the process set.
type Geometry struct {
	Q  []types.ProcessID // |Q| = n-f
	C1 types.ProcessID   // singleton
	C2 []types.ProcessID // |C2| = f-1
}

// NewGeometry splits membership m per the proof. It requires f > 1 (so C2
// is nonempty) and n > 2f.
func NewGeometry(m types.Membership) (Geometry, error) {
	if m.F <= 1 || m.N <= 2*m.F {
		return Geometry{}, fmt.Errorf("%w: n=%d f=%d", ErrGeometry, m.N, m.F)
	}
	g := Geometry{C1: types.ProcessID(m.N - m.F)}
	for i := 0; i < m.N-m.F; i++ {
		g.Q = append(g.Q, types.ProcessID(i))
	}
	for i := m.N - m.F + 1; i < m.N; i++ {
		g.C2 = append(g.C2, types.ProcessID(i))
	}
	return g, nil
}

// ScenarioOutcome reports one scenario run.
type ScenarioOutcome struct {
	Completed  map[types.ProcessID]bool // processes that finished round 1
	Violations []core.Violation         // among the scenario's correct set
}

// Result aggregates the full experiment.
type Result struct {
	Geometry  Geometry
	Scenario1 ScenarioOutcome
	Scenario2 ScenarioOutcome
	Scenario3 ScenarioOutcome
	// SWMRViolations is the control arm: violations of the SWMR round
	// protocol under randomized adversarial schedules (must be zero).
	SWMRViolations []core.Violation
	SWMRSchedules  int
}

// srbChannels is the medium of the strawman: one SRB node as a transport.
// The round system hands each round message to Broadcast, which makes it one
// SRB broadcast that every other process delivers, so the strawman also
// enjoys SRB's agreement. rounds.NewAsync over it is the natural round
// protocol over SRB, and deliberately the *best possible* one: waiting for
// more than n-f round messages may block forever, so no protocol over an
// eventual-delivery medium can wait for more. A round system never closes
// its medium: the scenario closes the node.
type srbChannels struct{ node srb.Node }

var errPointToPoint = errors.New("separation: SRB channels only broadcast")

func (c srbChannels) Self() types.ProcessID { return c.node.Self() }

func (c srbChannels) Broadcast(payload []byte) error {
	_, err := c.node.Broadcast(payload)
	return err
}

// Send is never called: the round system only broadcasts.
func (c srbChannels) Send(types.ProcessID, []byte) error { return errPointToPoint }

func (c srbChannels) Recv(ctx context.Context) (transport.Envelope, error) {
	for {
		d, err := c.node.Deliver(ctx)
		if err != nil {
			return transport.Envelope{}, err
		}
		if d.Sender != c.node.Self() {
			return transport.Envelope{From: d.Sender, To: c.node.Self(), Payload: d.Data}, nil
		}
	}
}

func (c srbChannels) Close() error { return c.node.Close() }

// scenario describes one of the proof's three adversary configurations.
type scenario struct {
	crashed []types.ProcessID
	blocked [][2][]types.ProcessID // directed set-to-set delayed links
	correct []types.ProcessID      // processes the predicate quantifies over
}

func (g Geometry) scenario(which int, m types.Membership) (scenario, error) {
	all := m.All()
	switch which {
	case 1:
		return scenario{
			crashed: []types.ProcessID{g.C1},
			blocked: [][2][]types.ProcessID{{g.C2, g.Q}},
			correct: remove(all, g.C1),
		}, nil
	case 2:
		return scenario{
			crashed: g.C2,
			blocked: [][2][]types.ProcessID{{{g.C1}, g.Q}},
			correct: remove(all, g.C2...),
		}, nil
	case 3:
		return scenario{
			blocked: [][2][]types.ProcessID{
				{{g.C1}, g.Q}, {{g.C1}, g.C2},
				{g.C2, g.Q}, {g.C2, {g.C1}},
			},
			correct: all,
		}, nil
	default:
		return scenario{}, fmt.Errorf("separation: no scenario %d", which)
	}
}

func remove(ids []types.ProcessID, drop ...types.ProcessID) []types.ProcessID {
	dropSet := make(map[types.ProcessID]bool, len(drop))
	for _, d := range drop {
		dropSet[d] = true
	}
	out := make([]types.ProcessID, 0, len(ids))
	for _, id := range ids {
		if !dropSet[id] {
			out = append(out, id)
		}
	}
	return out
}

// RunScenario executes one scenario of the strawman experiment and returns
// which processes completed round 1 and the violations among the
// scenario's correct processes.
func RunScenario(m types.Membership, which int, timeout time.Duration) (ScenarioOutcome, error) {
	return runScenario(m, which, timeout, nil)
}

// schedule is what a test driving one scenario run controls (runScenario).
type schedule struct {
	net     *simnet.Network
	checker *core.UniChecker
	begin   func(types.ProcessID) // lets a process send its round message
}

// runScenario is RunScenario under an optional schedule. With drive set, the
// network starts held (simnet.Hold: every send waits to be released, the
// scenario's delayed links included, so drive must never release those), no
// process sends its round message until drive begins it, and drive runs
// alongside the processes.
func runScenario(m types.Membership, which int, timeout time.Duration, drive func(schedule)) (ScenarioOutcome, error) {
	g, err := NewGeometry(m)
	if err != nil {
		return ScenarioOutcome{}, err
	}
	sc, err := g.scenario(which, m)
	if err != nil {
		return ScenarioOutcome{}, err
	}

	net, err := simnet.New(m)
	if err != nil {
		return ScenarioOutcome{}, err
	}
	defer net.Close()
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(int64(which))))
	if err != nil {
		return ScenarioOutcome{}, err
	}
	for _, b := range sc.blocked {
		for _, from := range b[0] {
			for _, to := range b[1] {
				net.Block(from, to)
			}
		}
	}

	checker := core.NewUniChecker()
	crashed := make(map[types.ProcessID]bool, len(sc.crashed))
	for _, c := range sc.crashed {
		crashed[c] = true
	}

	type peer struct {
		node srb.Node
		rs   *rounds.Async
	}
	peers := make(map[types.ProcessID]*peer)
	defer func() {
		for _, p := range peers {
			_ = p.rs.Close()
			_ = p.node.Close()
		}
	}()
	for _, id := range m.All() {
		if crashed[id] {
			continue
		}
		node, err := trincsrb.New(m, net.Endpoint(id), tu.Devices[id], tu.Verifier)
		if err != nil {
			return ScenarioOutcome{}, fmt.Errorf("separation: node %v: %w", id, err)
		}
		rs, err := rounds.NewAsync(srbChannels{node}, m, rounds.WithObserver(checker))
		if err != nil {
			_ = node.Close()
			return ScenarioOutcome{}, err
		}
		peers[id] = &peer{node: node, rs: rs}
	}

	gates := make(map[types.ProcessID]chan struct{}, len(peers))
	for id := range peers {
		gates[id] = make(chan struct{})
		if drive == nil {
			close(gates[id])
		}
	}
	outcome := ScenarioOutcome{Completed: make(map[types.ProcessID]bool)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	if drive != nil {
		net.Hold()
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(schedule{net: net, checker: checker, begin: func(id types.ProcessID) { close(gates[id]) }})
		}()
	}
	for id, p := range peers {
		wg.Add(1)
		go func(id types.ProcessID, p *peer) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			select {
			case <-gates[id]:
			case <-ctx.Done():
				return
			}
			if err := p.rs.Send(1, []byte(fmt.Sprintf("round-1 from %v", id))); err != nil {
				return
			}
			if _, err := p.rs.WaitEnd(ctx, 1); err != nil {
				return
			}
			_ = p.rs.Close() // the process moves on: its round's boundary
			mu.Lock()
			outcome.Completed[id] = true
			mu.Unlock()
		}(id, p)
	}
	wg.Wait()
	outcome.Violations = checker.Violations(sc.correct)
	return outcome, nil
}

// RunSWMRControl runs the same round workload over SWMR rounds under
// `schedules` randomized adversarial schedules and returns any violations
// (the claim: always none).
func RunSWMRControl(m types.Membership, schedules int, seed int64) ([]core.Violation, error) {
	var all []core.Violation
	for s := 0; s < schedules; s++ {
		store, err := swmr.NewStore(m)
		if err != nil {
			return nil, err
		}
		checker := core.NewUniChecker()
		systems := make([]*rounds.SWMR, m.N)
		for i := 0; i < m.N; i++ {
			sys, err := rounds.NewSWMR(swmr.NewLocal(store, types.ProcessID(i)), m,
				rounds.WithObserver(checker))
			if err != nil {
				return nil, err
			}
			systems[i] = sys
		}
		var wg sync.WaitGroup
		for i, sys := range systems {
			wg.Add(1)
			go func(i int, sys *rounds.SWMR) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(s*m.N+i)))
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				for r := types.Round(1); r <= 3; r++ {
					time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
					if err := sys.Send(r, []byte{byte(r)}); err != nil {
						return
					}
					time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
					if _, err := sys.WaitEnd(ctx, r); err != nil {
						return
					}
				}
			}(i, sys)
		}
		wg.Wait()
		for _, sys := range systems {
			_ = sys.Close()
		}
		all = append(all, checker.Violations(m.All())...)
	}
	return all, nil
}

// Run executes the full experiment: the three strawman scenarios plus the
// SWMR control arm.
func Run(m types.Membership, timeout time.Duration, controlSchedules int) (Result, error) {
	g, err := NewGeometry(m)
	if err != nil {
		return Result{}, err
	}
	res := Result{Geometry: g, SWMRSchedules: controlSchedules}
	for which := 1; which <= 3; which++ {
		outcome, err := RunScenario(m, which, timeout)
		if err != nil {
			return Result{}, err
		}
		switch which {
		case 1:
			res.Scenario1 = outcome
		case 2:
			res.Scenario2 = outcome
		case 3:
			res.Scenario3 = outcome
		}
	}
	res.SWMRViolations, err = RunSWMRControl(m, controlSchedules, 99)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}
