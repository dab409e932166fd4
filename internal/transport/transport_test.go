package transport

import (
	"testing"

	"unidir/internal/types"
)

type fakeDepths map[types.ProcessID]int

func (d fakeDepths) QueueDepth(to types.ProcessID) int { return d[to] }

func TestQueuesBelow(t *testing.T) {
	depths := fakeDepths{1: 7, 2: 1 << 20, 3: 0, 4: 7}
	ids := []types.ProcessID{1, 2, 3, 4}
	for depth, want := range map[int]int{0: 0, 1: 1, 7: 1, 8: 3, 1 << 20: 3, 1<<20 + 1: 4} {
		if got := QueuesBelow(depths, ids, depth); got != want {
			t.Errorf("QueuesBelow(depth=%d) = %d, want %d", depth, got, want)
		}
	}
	// A peer whose queue only grows takes one peer out of the count, however
	// deep it gets; it never hides the others.
	depths[2] = 1 << 40
	if got := QueuesBelow(depths, ids, 16); got != 3 {
		t.Errorf("with one dead peer %d queues count as short, want 3", got)
	}
}
