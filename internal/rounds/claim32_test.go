package rounds_test

import (
	"fmt"

	"testing"

	"unidir/internal/core"
	"unidir/internal/rounds"
	"unidir/internal/trusted/peats"
	"unidir/internal/trusted/sticky"
	"unidir/internal/trusted/swmr"
	"unidir/internal/types"
)

// Claim §3.2 quantifies over *all* shared-memory objects with a modifying
// operation, a read operation, and ACLs. These tests run the identical
// write-then-scan round protocol over each of the paper's three
// shared-memory primitives — SWMR registers, PEATS tuple spaces, and
// sticky bits — and check unidirectionality on all of them.

// memoryBuilders returns one swmr.Memory factory per primitive.
func memoryBuilders(t *testing.T, m types.Membership) map[string]func(self types.ProcessID) swmr.Memory {
	t.Helper()
	store, err := swmr.NewStore(m)
	if err != nil {
		t.Fatalf("swmr.NewStore: %v", err)
	}
	space := peats.NewSpace(peats.RoundPolicy())
	bits, err := sticky.NewStore(m)
	if err != nil {
		t.Fatalf("sticky.NewStore: %v", err)
	}
	return map[string]func(self types.ProcessID) swmr.Memory{
		"swmr": func(self types.ProcessID) swmr.Memory {
			return swmr.NewLocal(store, self)
		},
		"peats": func(self types.ProcessID) swmr.Memory {
			mem, err := peats.NewMemory(space, self, m)
			if err != nil {
				t.Fatalf("peats.NewMemory: %v", err)
			}
			return mem
		},
		"sticky": func(self types.ProcessID) swmr.Memory {
			mem, err := sticky.NewMemory(bits, self, m)
			if err != nil {
				t.Fatalf("sticky.NewMemory: %v", err)
			}
			return mem
		},
	}
}

func TestClaim32AllPrimitivesUnidirectional(t *testing.T) {
	m := mustMembership(t, 4, 1)
	for name, build := range memoryBuilders(t, m) {
		t.Run(name, func(t *testing.T) {
			checker := core.NewUniChecker()
			systems := make([]rounds.System, m.N)
			for i := 0; i < m.N; i++ {
				sys, err := rounds.NewSWMR(build(types.ProcessID(i)), m,
					rounds.WithObserver(checker))
				if err != nil {
					t.Fatalf("NewSWMR over %s: %v", name, err)
				}
				systems[i] = sys
			}
			defer closeAllSystems(systems)
			runRounds(t, systems, 4, 17)
			closeAllSystems(systems)
			if v := checker.Violations(m.All()); len(v) != 0 {
				t.Fatalf("%s rounds violated unidirectionality: %v", name, v)
			}
		})
	}
}

func TestClaim32ContentsDeliveredIntact(t *testing.T) {
	m := mustMembership(t, 3, 1)
	for name, build := range memoryBuilders(t, m) {
		t.Run(name, func(t *testing.T) {
			systems := make([]rounds.System, m.N)
			for i := 0; i < m.N; i++ {
				sys, err := rounds.NewSWMR(build(types.ProcessID(i)), m)
				if err != nil {
					t.Fatalf("NewSWMR: %v", err)
				}
				systems[i] = sys
			}
			defer closeAllSystems(systems)
			results := runRounds(t, systems, 2, 19)
			for i, perRound := range results {
				for r, got := range perRound {
					for from, data := range got {
						want := roundPayload(int(from), r+1)
						if string(data) != want {
							t.Fatalf("%s: p%d saw %q from %v in round %d, want %q",
								name, i, data, from, r+1, want)
						}
					}
				}
			}
		})
	}
}

func TestPEATSMemoryACL(t *testing.T) {
	m := mustMembership(t, 3, 1)
	space := peats.NewSpace(peats.RoundPolicy())
	mem0, err := peats.NewMemory(space, 0, m)
	if err != nil {
		t.Fatalf("NewMemory: %v", err)
	}
	mem1, err := peats.NewMemory(space, 1, m)
	if err != nil {
		t.Fatalf("NewMemory: %v", err)
	}
	if err := mem0.Append([]byte("mine")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	entries, err := mem1.ReadLog(0, 0)
	if err != nil || len(entries) != 1 || string(entries[0]) != "mine" {
		t.Fatalf("ReadLog = %q, %v", entries, err)
	}
	if _, err := mem1.ReadLog(9, 0); err == nil {
		t.Fatal("read of non-member object succeeded")
	}
	v, ok, err := mem1.Read(0)
	if err != nil || !ok || string(v) != "mine" {
		t.Fatalf("Read = %q %v %v", v, ok, err)
	}
	if _, ok, _ := mem0.Read(1); ok {
		t.Fatal("empty object read as set")
	}
}

func TestStickyMemorySequentialSlots(t *testing.T) {
	m := mustMembership(t, 2, 0)
	bits, err := sticky.NewStore(m)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	mem0, err := sticky.NewMemory(bits, 0, m)
	if err != nil {
		t.Fatalf("NewMemory: %v", err)
	}
	mem1, err := sticky.NewMemory(bits, 1, m)
	if err != nil {
		t.Fatalf("NewMemory: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := mem0.Append([]byte{byte(i)}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	entries, err := mem1.ReadLog(0, 2)
	if err != nil || len(entries) != 3 {
		t.Fatalf("ReadLog(from=2) = %d entries, %v", len(entries), err)
	}
	for i, e := range entries {
		if e[0] != byte(i+2) {
			t.Fatalf("entry %d = %v", i, e)
		}
	}
	// Incremental polling pattern (what the rounds poller does).
	if err := mem0.Append([]byte{99}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	more, err := mem1.ReadLog(0, 5)
	if err != nil || len(more) != 1 || more[0][0] != 99 {
		t.Fatalf("incremental ReadLog = %v, %v", more, err)
	}
}

// roundPayload mirrors the payload format runRounds sends.
func roundPayload(process, round int) string {
	return fmt.Sprintf("p%d-r%d", process, round)
}

func closeAllSystems(systems []rounds.System) {
	for _, s := range systems {
		_ = s.Close()
	}
}
