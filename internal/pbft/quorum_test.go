package pbft_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/obs"
	"unidir/internal/smr"
)

// TestVerifiesOnlyWhatQuorumsNeed: an unbatched request at n = 4 costs the
// group exactly 16 signature verifications — the 3 backups' pre-prepare,
// the 2 PREPAREs the primary needs and 1 each backup needs, and 2 COMMITs
// at each of the 4 replicas — however its frames interleave. Verifying
// every frame received would cost 24.
func TestVerifiesOnlyWhatQuorumsNeed(t *testing.T) {
	const k = 20
	reg := obs.NewRegistry()
	h := newHarness(t, 4, 1, 1, smr.EngineConfig{
		BatchSize: 1, LeaseTerm: -1, CheckpointInterval: 1 << 20, Metrics: reg,
	})
	c := h.client(0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < k; i++ {
		if _, err := c.invoke(ctx, kvstore.EncodePut(fmt.Sprintf("k%d", i), []byte{byte(i)})); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// Once every replica has executed every slot, no vote for those slots
	// can be verified any more: a committed slot takes none.
	for i, log := range h.logs {
		for len(log.Snapshot()) < k {
			if ctx.Err() != nil {
				t.Fatalf("replica %d executed %d of %d", i, len(log.Snapshot()), k)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got := reg.Snapshot().Counter("sig_verifications_total"); got != 16*k {
		t.Fatalf("sig_verifications_total = %d after %d unbatched requests, want 16 per request = %d", got, k, 16*k)
	}
}
