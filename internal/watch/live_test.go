package watch_test

// Live-cluster integration: the watcher scraping real MinBFT groups through
// the sharded harness — the same wiring unidir-doctor uses — and the
// Byzantine detection case from the issue: a replica forging a divergent
// checkpoint digest on its introspection surface (byz.ForgeCheckpointDigest)
// must be caught with evidence naming it.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strconv"
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

// buildShardedSources builds a 2-shard MinBFT cluster with a small
// checkpoint interval and returns it plus one Local source per shard,
// optionally wrapping shard 0 / replica 0's provider with forge.
func buildShardedSources(t *testing.T, forge bool) (*harness.ShardedCluster, []watch.Source) {
	t.Helper()
	sc, err := harness.BuildSharded(cluster.MinBFT, harness.ShardedConfig{
		Shards: 2,
		SMR:    harness.SMRConfig{F: 1, Scheme: sig.HMAC, Ckpt: 4, Batch: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.Stop)

	var sources []watch.Source
	for g, group := range sc.Groups {
		providers := make([]obs.StatusProvider, 0, len(group.Replicas))
		for i, rep := range group.Replicas {
			p := cluster.StatusProvider(rep)
			if p == nil {
				t.Fatalf("shard %d replica %d is not a StatusProvider", g, i)
			}
			if forge && g == 0 && i == 0 {
				p = byz.ForgeCheckpointDigest(p)
			}
			providers = append(providers, p)
		}
		sources = append(sources, watch.Local(strconv.Itoa(g), providers...))
	}
	return sc, sources
}

// writeUntilCheckpoints drives writes until every replica of every shard
// reports a stable checkpoint (laggards may reach it via state transfer).
func writeUntilCheckpoints(ctx context.Context, t *testing.T, sc *harness.ShardedCluster, sources []watch.Source) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; ; i++ {
		for j := 0; j < 8; j++ {
			key := fmt.Sprintf("wk-%d-%d", i, j)
			if err := sc.Client.Put(ctx, key, []byte{byte(j)}); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		all := true
		for _, src := range sources {
			sts, err := src.Fetch(ctx)
			if err != nil {
				t.Fatalf("fetch: %v", err)
			}
			for _, st := range sts {
				if st.Checkpoint == nil {
					all = false
				}
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

func quietWatcher(sources []watch.Source, reg *obs.Registry) *watch.Watcher {
	return watch.New(watch.Config{
		Sources: sources,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		Metrics: reg,
	})
}

func TestLiveClusterHealthy(t *testing.T) {
	sc, sources := buildShardedSources(t, false)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	writeUntilCheckpoints(ctx, t, sc, sources)

	w := quietWatcher(sources, obs.NewRegistry())
	rep := w.Scrape(ctx)
	if !rep.Healthy() {
		t.Fatalf("scrape 1 unhealthy: %+v %v", rep.Violations, rep.ScrapeErrors)
	}
	if len(rep.Replicas) != 6 || len(rep.Groups) != 2 {
		t.Fatalf("scraped %d replicas, %d groups; want 6, 2", len(rep.Replicas), len(rep.Groups))
	}
	for shard, g := range rep.Groups {
		if g.Replicas != 3 || g.Stale != 0 {
			t.Fatalf("shard %s health = %+v", shard, g)
		}
	}
	// Statuses must carry the hybrid-trust marker: every minbft replica
	// reports a hardware-backed usig counter.
	for _, st := range rep.Replicas {
		if st.TrustedCounters["usig"] == 0 {
			t.Fatalf("replica %d/%s has no usig high-water mark: %+v", st.Replica, st.Shard, st)
		}
	}
	// More traffic, then a second scrape: still healthy, and the cross-scrape
	// monotone rules have now actually compared something.
	for j := 0; j < 8; j++ {
		if err := sc.Client.Put(ctx, fmt.Sprintf("t2-%d", j), []byte{1}); err != nil {
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
	sc, sources := buildShardedSources(t, true)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	writeUntilCheckpoints(ctx, t, sc, sources)
	// Blame needs f+1 = 2 claims agreeing on a digest: with one replica
	// lagging, shard 0 would show the forged claim against one honest one.
	// With the writes stopped the group converges on one stable checkpoint.
	waitOneCheckpoint(ctx, t, sources[0])

	reg := obs.NewRegistry()
	w := quietWatcher(sources, reg)
	rep := w.Scrape(ctx)
	var found *watch.Violation
	for i := range rep.Violations {
		if rep.Violations[i].Rule == watch.RuleCheckpointDivergence && rep.Violations[i].Shard == "0" {
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
	// The healthy shard stays clean.
	for _, v := range rep.Violations {
		if v.Shard == "1" {
			t.Fatalf("healthy shard flagged: %+v", v)
		}
	}
}
