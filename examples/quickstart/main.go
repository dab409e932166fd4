// Quickstart: the library in one file.
//
// This example walks the paper's chain bottom-up in a single process:
//
//  1. build SWMR shared memory with ACLs (trusted hardware, shared-memory
//     class) and run unidirectional rounds over it, machine-checking the
//     unidirectionality property;
//  2. build sequenced reliable broadcast from those rounds (Algorithm 1)
//     and broadcast a few messages;
//  3. implement the TrInc trusted-counter interface from that SRB
//     (Theorem 1) and attest a statement.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"unidir/internal/core"
	"unidir/internal/rounds"
	"unidir/internal/sig"
	"unidir/internal/srb"
	"unidir/internal/srb/uniround"
	"unidir/internal/trusted/swmr"
	"unidir/internal/trusted/trincfromsrb"
	"unidir/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A system of n = 5 processes tolerating t = 2 Byzantine failures —
	// n >= 2t+1, enough for the shared-memory constructions, not enough
	// for anything built on plain message passing (which needs 3t+1).
	m, err := types.NewMembership(5, 2)
	if err != nil {
		return err
	}
	rings, err := sig.NewKeyrings(m, sig.Ed25519, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}

	// --- 1. Unidirectional rounds from SWMR shared memory ---
	fmt.Println("== unidirectional rounds over SWMR registers ==")
	store, err := swmr.NewStore(m)
	if err != nil {
		return err
	}
	checker := core.NewUniChecker()
	systems := make([]rounds.System, m.N)
	for i := 0; i < m.N; i++ {
		systems[i], err = rounds.NewSWMR(swmr.NewLocal(store, types.ProcessID(i)), m,
			rounds.WithObserver(checker))
		if err != nil {
			return err
		}
	}
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func(i int, sys rounds.System) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for r := types.Round(1); r <= 3; r++ {
				_ = sys.Send(r, []byte(fmt.Sprintf("hello from p%d in round %d", i, r)))
				got, _ := sys.WaitEnd(ctx, r)
				if i == 0 {
					fmt.Printf("  p0 ended round %d having heard %d/%d processes\n", r, len(got), m.N)
				}
			}
		}(i, sys)
	}
	wg.Wait()
	for _, sys := range systems {
		_ = sys.Close()
	}
	fmt.Printf("  unidirectionality violations: %d (shared memory: always 0)\n",
		len(checker.Violations(m.All())))

	// --- 2. SRB from unidirectional rounds (Algorithm 1) ---
	fmt.Println("== sequenced reliable broadcast from unidirectional rounds ==")
	stores := make([]*swmr.Store, m.N) // one memory region per sender instance
	for s := range stores {
		if stores[s], err = swmr.NewStore(m); err != nil {
			return err
		}
	}
	nodes := make([]srb.Node, m.N)
	for i := 0; i < m.N; i++ {
		self := types.ProcessID(i)
		nodes[i], err = uniround.New(m, rings[i], func(sender types.ProcessID) (rounds.System, error) {
			return rounds.NewSWMR(swmr.NewLocal(stores[sender], self), m)
		})
		if err != nil {
			return err
		}
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	for k := 1; k <= 3; k++ {
		if _, err := nodes[0].Broadcast([]byte(fmt.Sprintf("message %d", k))); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for i, n := range nodes {
		for k := 0; k < 3; k++ {
			d, err := n.Deliver(ctx)
			if err != nil {
				return fmt.Errorf("p%d deliver: %w", i, err)
			}
			if i == 1 {
				fmt.Printf("  p1 delivered seq %d from %v: %q\n", d.Seq, d.Sender, d.Data)
			}
		}
	}

	// --- 3. TrInc from SRB (Theorem 1) ---
	fmt.Println("== TrInc trusted counters from SRB ==")
	trinkets := make([]*trincfromsrb.Trinket, m.N)
	for i, n := range nodes {
		trinkets[i] = trincfromsrb.New(n)
		defer trinkets[i].Close()
	}
	att, err := trinkets[2].Attest(1, []byte("p2's first attested statement"))
	if err != nil {
		return err
	}
	if err := trinkets[4].WaitAttestation(ctx, att, 2); err != nil {
		return err
	}
	fmt.Printf("  p4 validated p2's attestation (counter %d, broadcast seq %d)\n", att.C, att.K)
	if _, err := trinkets[2].Attest(1, []byte("equivocation attempt")); err == nil {
		// The Attest itself succeeds (the construction defers enforcement
		// to checkers); the reuse simply never validates anywhere.
		bad, _ := trinkets[2].Attest(1, []byte("equivocation attempt 2"))
		if trinkets[4].CheckAttestation(bad, 2) {
			return fmt.Errorf("equivocation validated — this must never happen")
		}
		fmt.Println("  reused counter value correctly rejected by checkers")
	}
	fmt.Println("done.")
	return nil
}
