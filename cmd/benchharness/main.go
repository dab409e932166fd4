// Command benchharness regenerates every experiment in DESIGN.md's
// per-experiment index:
//
//	F1  the implication matrix of the paper's Figure 1, live-checked
//	E1  the §4.1 separation experiment (three scenarios + SWMR control)
//	B1  SRB broadcast cost by substrate (trincsrb / uniround / bracha) and n
//	B2  BFT SMR: MinBFT (n=2f+1) vs PBFT (n=3f+1)
//	B3  trusted hardware and signature microbenchmarks
//	B4  round-system ablation (swmr / async / lockstep)
//	B8  per-phase latency attribution via distributed tracing
//	B9  latency/throughput frontier: adaptive batching + admission control
//	    + backpressure, across an offered-load sweep
//	B10 read fast path: leased linearizable reads vs consensus-path reads
//	    over a mixed workload (-read-ratio; default sweeps 90% and 100%)
//	B11 sharded multi-group SMR: aggregate write throughput across 1/2/4
//	    shards in a latency-bound regime, plus router overhead on the
//	    leased-read path
//	B12 introspection overhead: B11's 2-shard write point with and without
//	    the watch safety auditor polling every replica at 1s
//
// Usage:
//
//	benchharness -exp all                      # everything (default)
//	benchharness -exp b2 -ops 2000             # one experiment, tuned workload
//	benchharness -exp b2 -json BENCH_B2.json   # machine-readable B1/B2/B9 rows
//	benchharness -exp b8 -trace-out spans.json # merged spans + breakdowns
//
// The Go-native testing.B versions of B1-B4 live in bench_test.go at the
// repository root (go test -bench=.).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"unidir/internal/obs"
)

// benchRow is one machine-readable measurement (B1/B2), emitted via -json.
type benchRow struct {
	Exp           string  `json:"exp"`
	Impl          string  `json:"impl"`
	N             int     `json:"n"`
	F             int     `json:"f"`
	Phases        int     `json:"phases,omitempty"`
	Shards        int     `json:"shards,omitempty"` // B11: consensus groups behind the router
	Batch         int     `json:"batch,omitempty"`
	Window        int     `json:"window,omitempty"`
	Ops           int     `json:"ops"`
	Seconds       float64 `json:"seconds"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	MeanLatencyUS float64 `json:"mean_latency_us"`
	P50LatencyUS  float64 `json:"p50_latency_us,omitempty"`
	P99LatencyUS  float64 `json:"p99_latency_us,omitempty"`

	// B9 (latency/throughput frontier) fields.
	Mode          string  `json:"mode,omitempty"`            // B9: "adaptive"; B10: "lease"/"consensus"
	OfferedPerSec float64 `json:"offered_per_sec,omitempty"` // open-loop target rate
	Sheds         int     `json:"sheds,omitempty"`           // requests shed (ErrOverloaded)
	WindowEnd     int     `json:"window_end,omitempty"`      // effective client window at the end

	// B10 (read fast path) fields.
	ReadRatio   float64 `json:"read_ratio,omitempty"` // fraction of ops that are reads
	ReadsPerSec float64 `json:"reads_per_sec,omitempty"`
	ReadP50US   float64 `json:"read_p50_us,omitempty"`
	ReadP99US   float64 `json:"read_p99_us,omitempty"`
}

// report collects benchRows across experiments; nil-safe so drivers add
// rows unconditionally.
type report struct {
	rows []benchRow
}

func (r *report) add(row benchRow) {
	if r != nil {
		r.rows = append(r.rows, row)
	}
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r.rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	exp := flag.String("exp", "all", "experiments to run: all, or a comma-separated subset of f1,e1,b1,b2,b3,b4,b8,b9,b10,b11,b12")
	msgs := flag.Int("msgs", 200, "broadcasts per configuration (B1)")
	ops := flag.Int("ops", 500, "client operations per configuration (B2)")
	iters := flag.Int("iters", 5000, "iterations per microbenchmark (B3)")
	roundsN := flag.Int("rounds", 500, "rounds per system (B4)")
	jsonPath := flag.String("json", "", "write machine-readable B1/B2 rows to this file")
	traceOut := flag.String("trace-out", "", "write B8's merged spans and per-request breakdowns to this file")
	readRatio := flag.Float64("read-ratio", -1, "B10 read fraction in [0,1] (-1 sweeps 0.9 and 1.0)")
	flag.Parse()

	fmt.Fprintln(os.Stderr, obs.BuildInfoLine("benchharness"))
	if err := run(strings.ToLower(*exp), *msgs, *ops, *iters, *roundsN, *readRatio, *jsonPath, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchharness:", err)
		os.Exit(1)
	}
}

func run(exp string, msgs, ops, iters, roundsN int, readRatio float64, jsonPath, traceOut string) error {
	rep := &report{}
	type experiment struct {
		id  string
		fn  func() error
		sep bool
	}
	all := []experiment{
		{"f1", expF1, true},
		{"e1", expE1, true},
		{"b1", func() error { return expB1(msgs, rep) }, true},
		{"b2", func() error { return expB2(ops, rep) }, true},
		{"b3", func() error { return expB3(iters) }, true},
		{"b4", func() error { return expB4(roundsN) }, true},
		{"b8", func() error { return expB8(ops, traceOut) }, false},
		{"b9", func() error { return expB9(ops, rep) }, true},
		{"b10", func() error { return expB10(ops, readRatio, rep) }, true},
		{"b11", func() error { return expB11(ops, rep) }, true},
		{"b12", func() error { return expB12(ops, rep) }, true},
	}
	want := map[string]bool{}
	for _, id := range strings.Split(exp, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	matched := 0
	for _, e := range all {
		if !want["all"] && !want[e.id] {
			continue
		}
		matched++
		if err := e.fn(); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if e.sep && (want["all"] || len(want) > matched) {
			fmt.Println()
		}
	}
	if matched == 0 {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if jsonPath != "" {
		if err := rep.write(jsonPath); err != nil {
			return fmt.Errorf("write %s: %w", jsonPath, err)
		}
		fmt.Printf("wrote %d rows to %s\n", len(rep.rows), jsonPath)
	}
	return nil
}
