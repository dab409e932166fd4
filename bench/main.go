// Command bench is the repo's benchmark ledger: an in-process cluster over
// loopback tcpnet with Ed25519 signatures and the trusted-counter WAL, six
// named workloads, end-to-end metrics from untraced runs and a per-layer
// CPU/latency budget from traced ones. See README.md in this directory.
//
//	go run ./bench -seed 1                    # all workloads, end-to-end metrics
//	go run ./bench -traced                    # all workloads, per-layer metrics
//	go run ./bench -workload w-sat -seed 1 -seconds 27 -trace 0   # one run
//	go run ./bench -compare A.json B.json     # apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"unidir/internal/sig"
)

const (
	defaultSeconds = 27
	scratchRoot    = ".bench_work" // data dirs live here, inside the checkout
	// runCap ends a single run whose cluster has wedged (a client call has
	// no deadline of its own); a healthy run takes under 50 s.
	runCap = 150 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print one JSON result line (default: run all, one child process each)")
		seed    = flag.Int64("seed", 1, "workload seed: key choice and op mix")
		seconds = flag.Int("seconds", defaultSeconds, "measured seconds per workload, one window each")
		trace   = flag.Int("trace", 0, "with -workload: 1 attaches registry, span sampling and profilers and prints per-layer metrics instead")
		traced  = flag.Bool("traced", false, "run the traced pass over all workloads (shorter windows, microbenches at full length)")
		quick   = flag.Bool("quick", false, "smoke shape: one 1 s window, one set-up")
		micro   = flag.Duration("micro", 100*time.Millisecond, "per-function microbench time in a traced run (0 skips them)")
		out     = flag.String("out", "", "write the result set as JSON to this file")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(pinProcs)
	if *trace != 0 {
		// Finer than the 512 KiB default, so a run samples enough
		// allocations per layer; set before anything allocates much.
		runtime.MemProfileRate = 64 << 10
	}
	if err := checkEnv(os.Environ()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *name != "":
		err = runOne(*name, runOptions{seed: *seed, seconds: *seconds, quick: *quick,
			traced: *trace != 0, micro: *micro, scheme: sig.Ed25519})
	default:
		err = runAll(*seed, *seconds, *traced, *quick, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// checkEnv refuses to run when any UNIDIR_* variable is set: replicas read
// them silently, and a result must name what was on the path.
func checkEnv(environ []string) error {
	for _, kv := range environ {
		if strings.HasPrefix(kv, "UNIDIR_") {
			return fmt.Errorf("%s is set; the benchmark pins every knob itself, unset it", strings.SplitN(kv, "=", 2)[0])
		}
	}
	return nil
}

// resultLine is the contract's last stdout line.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricLine `json:"metrics"`
}

type metricLine struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process, prints the human-readable
// table and then the result line: every end-to-end metric for an untraced
// run, every per-layer metric for a traced one.
func runOne(name string, opt runOptions) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	time.AfterFunc(runCap, func() {
		fmt.Fprintf(os.Stderr, "bench: %s still running after %v, giving up\n", name, runCap)
		os.Exit(1)
	})
	opt.dir = filepath.Join(scratchRoot, fmt.Sprintf("%s-%d", name, os.Getpid()))
	defer os.Remove(scratchRoot) // succeeds once the last concurrent run has left
	printHeader(os.Stdout, newHeader(opt.scheme.String()))
	fmt.Printf("bench: workload=%s seed=%d seconds=%d traced=%v quick=%v\n", name, opt.seed, opt.seconds, opt.traced, opt.quick)
	res, err := runWorkload(w, opt)
	if err != nil {
		return err
	}
	if opt.traced && w.overheadRef {
		if err := traceOverhead(w, opt, res); err != nil {
			return err
		}
	}
	printResult(os.Stdout, res)
	defs := endToEnd
	if opt.traced {
		defs = perLayer
	}
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]metricLine, len(defs))}
	for _, d := range defs {
		line.Metrics[d.name] = metricLine{Value: res.Metrics[d.name].Value, Unit: d.unit}
	}
	// The full result rides on the line before, for the all-workloads
	// parent to collect min/max and sample counts.
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("result: %s\n", full)
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d checks failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// traceOverhead measures the same workload once more, shorter and with
// nothing attached, right after the traced run in the same process, and
// reports how much throughput the instruments cost.
func traceOverhead(w workload, opt runOptions, traced *runResult) error {
	ref := opt
	ref.traced, ref.micro = false, 0
	if ref.seconds = opt.seconds / 3; ref.seconds < 3 {
		ref.seconds = 3
	}
	ref.dir = opt.dir + "-ref"
	plain, err := runWorkload(w, ref)
	if err != nil {
		return fmt.Errorf("untraced reference: %w", err)
	}
	traced.Attempted += plain.Attempted
	traced.Failed += plain.Failed
	traced.Errors = append(traced.Errors, plain.Errors...)
	base := plain.Metrics["ops_per_s"].Value
	traced.set1("trace.overhead_pct", "%", 100*ratio(base-traced.Metrics["ops_per_s"].Value, base))
	return nil
}

// printResult prints every metric the run measured, in catalogue order,
// by name with unit, median/min/max over the windows and the sample count.
func printResult(f *os.File, res *runResult) {
	fmt.Fprintf(f, "%-28s %14s %-6s %14s %14s %9s\n", "metric", "median", "unit", "min", "max", "samples")
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; ok {
				fmt.Fprintf(f, "%-28s %14.4f %-6s %14.4f %14.4f %9d\n", d.name, m.Value, m.Unit, m.Min, m.Max, m.Samples)
			}
		}
	}
	fmt.Fprintf(f, "fail_ratio %d/%d\n", res.Failed, res.Attempted)
	for _, e := range res.Errors {
		fmt.Fprintf(f, "FAILED: %s\n", e)
	}
}
