package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"unidir/internal/sig"
)

// TestQuickSmoke builds the HMAC variant of the cluster, runs the quick
// shape of the mixed read/write workload end to end (preload, load,
// read-back, audit), tears it down, and checks that nothing was left
// running.
func TestQuickSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	w, err := workloadByName("r-mix")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(w, runOptions{seed: 1, seconds: 1, quick: true, scheme: sig.HMAC, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d of %d checks failed: %v", res.Failed, res.Attempted, res.Errors)
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.name]; !ok || m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after teardown:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

func TestCheckEnv(t *testing.T) {
	if err := checkEnv([]string{"HOME=/root", "UNIDIRX=1"}); err != nil {
		t.Fatalf("clean environment refused: %v", err)
	}
	err := checkEnv([]string{"HOME=/root", "UNIDIR_BATCH=8"})
	if err == nil || !strings.Contains(err.Error(), "UNIDIR_BATCH") {
		t.Fatalf("UNIDIR_BATCH=8 not refused by name: %v", err)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the code's
// gated workloads and metric lists in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(bf.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in code", len(bf.Workloads), len(gated))
	}
	for i, w := range gated {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q (or their why differs)", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in code", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s metric %s: bound present = %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("metric %s: bound %v outside (0, 0.25]", g.Name, *g.Bound)
			}
		}
	}
	check("end-to-end", bf.EndToEnd, endToEnd, true)
	check("per-layer", bf.PerLayer, perLayer, false)
}
