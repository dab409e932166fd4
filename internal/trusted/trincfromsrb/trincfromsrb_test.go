package trincfromsrb_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"unidir/internal/rounds"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/srb"
	"unidir/internal/srb/bracha"
	"unidir/internal/srb/uniround"
	"unidir/internal/trusted/swmr"
	"unidir/internal/trusted/trincfromsrb"
	"unidir/internal/types"
)

// The conformance suite runs Theorem 1's construction over two SRB
// implementations: bracha (TrInc from *no* trusted hardware, n >= 3f+1) and
// uniround (completing the chain shared memory => unidirectionality => SRB
// => TrInc, n >= 2t+1).

type fixture struct {
	m        types.Membership
	trinkets []*trincfromsrb.Trinket
}

func buildOverBracha(t *testing.T) *fixture {
	t.Helper()
	m, err := types.NewMembership(4, 1)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	fix := &fixture{m: m, trinkets: make([]*trincfromsrb.Trinket, m.N)}
	nodes := make([]srb.Node, m.N)
	for i := 0; i < m.N; i++ {
		node, err := bracha.New(m, net.Endpoint(types.ProcessID(i)))
		if err != nil {
			t.Fatalf("bracha.New: %v", err)
		}
		nodes[i] = node
		fix.trinkets[i] = trincfromsrb.New(node)
	}
	t.Cleanup(func() {
		for i := range fix.trinkets {
			_ = fix.trinkets[i].Close()
			_ = nodes[i].Close()
		}
		net.Close()
	})
	return fix
}

func buildOverUniround(t *testing.T) *fixture {
	t.Helper()
	m, err := types.NewMembership(3, 1)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	rings, err := sig.NewKeyrings(m, sig.HMAC, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatalf("NewKeyrings: %v", err)
	}
	stores := make([]*swmr.Store, m.N)
	for s := range stores {
		stores[s], err = swmr.NewStore(m)
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
	}
	fix := &fixture{m: m, trinkets: make([]*trincfromsrb.Trinket, m.N)}
	nodes := make([]srb.Node, m.N)
	for i := 0; i < m.N; i++ {
		self := types.ProcessID(i)
		node, err := uniround.New(m, rings[i], func(sender types.ProcessID) (rounds.System, error) {
			return rounds.NewSWMR(swmr.NewLocal(stores[sender], self), m)
		})
		if err != nil {
			t.Fatalf("uniround.New: %v", err)
		}
		nodes[i] = node
		fix.trinkets[i] = trincfromsrb.New(node)
	}
	t.Cleanup(func() {
		for i := range fix.trinkets {
			_ = fix.trinkets[i].Close()
			_ = nodes[i].Close()
		}
	})
	return fix
}

func builds() map[string]func(*testing.T) *fixture {
	return map[string]func(*testing.T) *fixture{
		"over-bracha":   buildOverBracha,
		"over-uniround": buildOverUniround,
	}
}

func TestCorrectAttestationValidatesEverywhere(t *testing.T) {
	for name, build := range builds() {
		t.Run(name, func(t *testing.T) {
			fix := build(t)
			a, err := fix.trinkets[0].Attest(1, []byte("statement"))
			if err != nil {
				t.Fatalf("Attest: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			for i, tk := range fix.trinkets {
				if err := tk.WaitAttestation(ctx, a, 0); err != nil {
					t.Fatalf("trinket %d: WaitAttestation: %v", i, err)
				}
				if !tk.CheckAttestation(a, 0) {
					t.Fatalf("trinket %d: CheckAttestation false after wait", i)
				}
			}
		})
	}
}

func TestReusedCounterValueNeverValidates(t *testing.T) {
	for name, build := range builds() {
		t.Run(name, func(t *testing.T) {
			fix := build(t)
			first, err := fix.trinkets[0].Attest(5, []byte("first"))
			if err != nil {
				t.Fatalf("Attest: %v", err)
			}
			second, err := fix.trinkets[0].Attest(5, []byte("equivocation"))
			if err != nil {
				t.Fatalf("Attest: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			for i, tk := range fix.trinkets {
				if err := tk.WaitAttestation(ctx, first, 0); err != nil {
					t.Fatalf("trinket %d: first attestation: %v", i, err)
				}
				// The reuse is conclusively rejected once the slot is bound.
				if err := tk.WaitAttestation(ctx, second, 0); !errors.Is(err, trincfromsrb.ErrNotAttested) {
					t.Fatalf("trinket %d: reused counter err = %v", i, err)
				}
			}
		})
	}
}

func TestLowerCounterAfterHigherNeverValidates(t *testing.T) {
	for name, build := range builds() {
		t.Run(name, func(t *testing.T) {
			fix := build(t)
			high, err := fix.trinkets[1].Attest(10, []byte("high"))
			if err != nil {
				t.Fatalf("Attest: %v", err)
			}
			low, err := fix.trinkets[1].Attest(3, []byte("stale"))
			if err != nil {
				t.Fatalf("Attest: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			for i, tk := range fix.trinkets {
				if err := tk.WaitAttestation(ctx, high, 1); err != nil {
					t.Fatalf("trinket %d: high: %v", i, err)
				}
				if err := tk.WaitAttestation(ctx, low, 1); !errors.Is(err, trincfromsrb.ErrNotAttested) {
					t.Fatalf("trinket %d: stale counter err = %v", i, err)
				}
			}
		})
	}
}

func TestFabricatedAttestationRejected(t *testing.T) {
	for name, build := range builds() {
		t.Run(name, func(t *testing.T) {
			fix := build(t)
			fake := trincfromsrb.Attestation{Process: 1, K: 1, C: 1, Msg: []byte("never broadcast")}
			if fix.trinkets[0].CheckAttestation(fake, 1) {
				t.Fatal("fabricated attestation accepted")
			}
			// Misattributed process also fails structurally.
			real, err := fix.trinkets[1].Attest(1, []byte("genuine"))
			if err != nil {
				t.Fatalf("Attest: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			if err := fix.trinkets[0].WaitAttestation(ctx, real, 1); err != nil {
				t.Fatalf("genuine attestation: %v", err)
			}
			if fix.trinkets[0].CheckAttestation(real, 2) {
				t.Fatal("attestation accepted for the wrong trinket")
			}
			tampered := real
			tampered.Msg = []byte("altered")
			if fix.trinkets[0].CheckAttestation(tampered, 1) {
				t.Fatal("tampered message accepted")
			}
		})
	}
}

func TestCheckersAgreeOnWinner(t *testing.T) {
	// When a Byzantine process reuses a counter, all correct checkers must
	// agree on *which* attestation won (the one first in broadcast order) —
	// the agreement property that makes this a usable trinket.
	for name, build := range builds() {
		t.Run(name, func(t *testing.T) {
			fix := build(t)
			tk := fix.trinkets[0]
			attests := make([]trincfromsrb.Attestation, 0, 3)
			for _, msg := range []string{"a", "b", "c"} {
				a, err := tk.Attest(7, []byte(msg)) // same counter three times
				if err != nil {
					t.Fatalf("Attest: %v", err)
				}
				attests = append(attests, a)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			for i, checker := range fix.trinkets {
				if err := checker.WaitAttestation(ctx, attests[0], 0); err != nil {
					t.Fatalf("trinket %d: winner: %v", i, err)
				}
				for _, loser := range attests[1:] {
					if checker.CheckAttestation(loser, 0) {
						t.Fatalf("trinket %d accepted a losing attestation", i)
					}
				}
			}
		})
	}
}

func TestHighestTracksCounter(t *testing.T) {
	fix := buildOverBracha(t)
	a1, err := fix.trinkets[2].Attest(4, []byte("x"))
	if err != nil {
		t.Fatalf("Attest: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := fix.trinkets[0].WaitAttestation(ctx, a1, 2); err != nil {
		t.Fatalf("WaitAttestation: %v", err)
	}
	if got := fix.trinkets[0].Highest(2); got != 4 {
		t.Fatalf("Highest = %d, want 4", got)
	}
}

func TestZeroCounterRejected(t *testing.T) {
	fix := buildOverBracha(t)
	if _, err := fix.trinkets[0].Attest(0, []byte("x")); err == nil {
		t.Fatal("Attest(0) succeeded")
	}
}

// loopback is the SRB node of a one-process group: it delivers each of its
// own broadcasts at once, so a trinket's pump stores an attestation while
// the Attest caller is already checking for it.
type loopback struct {
	q   chan srb.Delivery
	seq types.SeqNum
}

func (l *loopback) Self() types.ProcessID { return 0 }

func (l *loopback) Broadcast(data []byte) (types.SeqNum, error) {
	l.seq++
	l.q <- srb.Delivery{Sender: 0, Seq: l.seq, Data: data}
	return l.seq, nil
}

func (l *loopback) Deliver(ctx context.Context) (srb.Delivery, error) {
	select {
	case d := <-l.q:
		return d, nil
	case <-ctx.Done():
		return srb.Delivery{}, ctx.Err()
	}
}

func (l *loopback) Close() error { return nil }

func TestWaitAttestationRacingDelivery(t *testing.T) {
	tk := trincfromsrb.New(&loopback{q: make(chan srb.Delivery, 1)})
	defer tk.Close()
	for c := types.SeqNum(1); c <= 20000; c++ {
		a, err := tk.Attest(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err = tk.WaitAttestation(ctx, a, 0)
		cancel()
		if err != nil {
			t.Fatalf("attestation %d: %v", c, err)
		}
	}
}
