package watch_test

// Live-cluster integration: the watcher scraping a real MinBFT group built
// by the harness — the same wiring unidir-doctor uses — and the
// Byzantine detection case from the issue: a replica forging a divergent
// checkpoint digest on its introspection surface (byz.ForgeCheckpointDigest)
// must be caught with evidence naming it.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"unidir/internal/byz"
	"unidir/internal/cluster"
	"unidir/internal/harness"
	"unidir/internal/obs"
	"unidir/internal/sig"
	"unidir/internal/watch"
)

// buildSource builds a MinBFT group with a small checkpoint interval and
// returns it plus a Local source over its replicas, optionally wrapping
// replica 0's provider with forge.
func buildSource(t *testing.T, forge bool) (*harness.SMRCluster, watch.Source) {
	t.Helper()
	sc, err := harness.BuildMinBFTCfg(harness.SMRConfig{F: 1, Scheme: sig.HMAC, Ckpt: 4, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.Stop)

	providers := make([]obs.StatusProvider, 0, len(sc.Group.Replicas))
	for i, rep := range sc.Group.Replicas {
		p := cluster.StatusProvider(rep)
		if p == nil {
			t.Fatalf("replica %d is not a StatusProvider", i)
		}
		if forge && i == 0 {
			p = byz.ForgeCheckpointDigest(p)
		}
		providers = append(providers, p)
	}
	return sc, watch.Local("0", providers...)
}

// writeUntilCheckpoints drives writes until every replica reports a stable
// checkpoint (laggards may reach it via state transfer).
func writeUntilCheckpoints(ctx context.Context, t *testing.T, sc *harness.SMRCluster, src watch.Source) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; ; i++ {
		for j := 0; j < 8; j++ {
			key := fmt.Sprintf("wk-%d-%d", i, j)
			if err := sc.Pipe.Put(ctx, key, []byte{byte(j)}); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		sts, err := src.Fetch(ctx)
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		all := true
		for _, st := range sts {
			if st.Checkpoint == nil {
				all = false
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas never reached a stable checkpoint")
		}
	}
}

// waitOneCheckpoint polls src until all its replicas report a stable
// checkpoint at one count.
func waitOneCheckpoint(ctx context.Context, t *testing.T, src watch.Source) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		sts, err := src.Fetch(ctx)
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		one := true
		for _, st := range sts {
			one = one && st.Checkpoint != nil && sts[0].Checkpoint != nil && st.Checkpoint.Count == sts[0].Checkpoint.Count
		}
		if one {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never agreed on one checkpoint count: %+v", sts)
		}
	}
}

func quietWatcher(src watch.Source, reg *obs.Registry) *watch.Watcher {
	return watch.New(watch.Config{
		Sources: []watch.Source{src},
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		Metrics: reg,
	})
}

func TestLiveClusterHealthy(t *testing.T) {
	sc, src := buildSource(t, false)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	writeUntilCheckpoints(ctx, t, sc, src)

	w := quietWatcher(src, obs.NewRegistry())
	rep := w.Scrape(ctx)
	if !rep.Healthy() {
		t.Fatalf("scrape 1 unhealthy: %+v %v", rep.Violations, rep.ScrapeErrors)
	}
	if len(rep.Replicas) != 3 || rep.Group.Replicas != 3 || rep.Group.Stale != 0 {
		t.Fatalf("scraped %d replicas, health %+v; want 3, 3 fresh", len(rep.Replicas), rep.Group)
	}
	// Statuses must carry the hybrid-trust marker: every minbft replica
	// reports a hardware-backed usig counter.
	for _, st := range rep.Replicas {
		if st.TrustedCounters["usig"] == 0 {
			t.Fatalf("replica %d has no usig high-water mark: %+v", st.Replica, st)
		}
	}
	// More traffic, then a second scrape: still healthy, and the cross-scrape
	// monotone rules have now actually compared something.
	for j := 0; j < 8; j++ {
		if err := sc.Pipe.Put(ctx, fmt.Sprintf("t2-%d", j), []byte{1}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	rep = w.Scrape(ctx)
	if !rep.Healthy() {
		t.Fatalf("scrape 2 unhealthy: %+v", rep.Violations)
	}
	if w.TotalViolations() != 0 {
		t.Fatalf("accumulated violations: %v", w.Violations())
	}
}

func TestLiveClusterForgedDigestCaught(t *testing.T) {
	sc, src := buildSource(t, true)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	writeUntilCheckpoints(ctx, t, sc, src)
	// Blame needs f+1 = 2 claims agreeing on a digest: with one replica
	// lagging, the scrape would show the forged claim against one honest
	// one. With the writes stopped the group converges on one stable
	// checkpoint.
	waitOneCheckpoint(ctx, t, src)

	reg := obs.NewRegistry()
	w := quietWatcher(src, reg)
	rep := w.Scrape(ctx)
	var found *watch.Violation
	for i := range rep.Violations {
		if rep.Violations[i].Rule == watch.RuleCheckpointDivergence {
			found = &rep.Violations[i]
		}
	}
	if found == nil {
		t.Fatalf("forged digest not caught: %+v", rep.Violations)
	}
	// The evidence must name the forging replica (0) as the diverging one:
	// its digest is the minority against two honest replicas.
	ev := string(found.Evidence)
	if !strings.Contains(ev, `"diverging":[0]`) {
		t.Fatalf("evidence does not blame replica 0: %s", ev)
	}
	if got := reg.Snapshot().CounterSum("watch_violations_total"); got == 0 {
		t.Fatal("watch_violations_total not incremented")
	}
}
