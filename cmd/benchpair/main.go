// Command benchpair produces the evidence a performance claim needs
// (choosing-metrics §8): it builds ./bench at a reference commit and from the
// working tree, runs N pairs of one workload alternating which side goes
// first, at the run length BENCHMARK.json fixes, and prints for every
// end-to-end metric each side's median and quartiles, how many pairs the
// change won, and whether that meets the claim rule (≥ 9/10 of the pairs,
// medians further apart than the reference's own inter-quartile distance).
//
//	go run ./cmd/benchpair -ref HEAD~1 -workload w-sat -n 10
//
// Run it from the repo root. The reference is exported with git archive into
// a temporary directory (nothing is checked out or stashed); the change side
// is the working tree as it stands, committed or not.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultLine is the last stdout line of a single-workload bench run.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	var (
		ref      = flag.String("ref", "HEAD", "git ref of the reference side")
		workload = flag.String("workload", "w-sat", "bench workload to run")
		n        = flag.Int("n", 10, "pairs to run")
		seed     = flag.Int64("seed", 1, "seed of the first pair; pair i uses seed+i on both sides")
		seconds  = flag.Int("seconds", 0, "measured seconds per run (default: BENCHMARK.json's run_seconds)")
	)
	flag.Parse()
	if err := run(*ref, *workload, *n, *seed, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(ref, workload string, n int, seed int64, seconds int) error {
	var bf benchmarkFile
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repo root: %w", err)
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if seconds <= 0 {
		seconds = bf.RunSeconds
	}
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	refDir, refTar := filepath.Join(tmp, "ref"), filepath.Join(tmp, "ref.tar")
	if err := os.Mkdir(refDir, 0o755); err != nil {
		return err
	}
	if err := command(".", "git", "archive", "-o", refTar, ref); err != nil {
		return fmt.Errorf("export %s: %w", ref, err)
	}
	if err := command(".", "tar", "-xf", refTar, "-C", refDir); err != nil {
		return fmt.Errorf("export %s: %w", ref, err)
	}
	bins := [2]string{filepath.Join(tmp, "bench-ref"), filepath.Join(tmp, "bench-change")}
	for side, dir := range [2]string{refDir, "."} {
		// -buildvcs=false: the exported reference has no repository to stamp
		// the binary from, so neither side gets a stamp.
		if err := command(dir, "go", "build", "-buildvcs=false", "-o", bins[side], "./bench"); err != nil {
			return fmt.Errorf("build %s: %w", [2]string{ref, "working tree"}[side], err)
		}
	}

	fmt.Printf("benchpair: ref=%s workload=%s pairs=%d seconds=%d seeds=%d..%d\n",
		ref, workload, n, seconds, seed, seed+int64(n)-1)
	var runs [2][]resultLine // [side][pair]
	for i := 0; i < n; i++ {
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		var pair [2]resultLine
		for _, side := range order {
			// Each run gets its own working directory: the benchmark keeps
			// its replica data dirs under the directory it runs in.
			wd := filepath.Join(tmp, fmt.Sprintf("run-%d-%d", i, side))
			if err := os.Mkdir(wd, 0o755); err != nil {
				return err
			}
			res, err := runBench(bins[side], wd, workload, seed+int64(i), seconds)
			if err != nil {
				return fmt.Errorf("pair %d, %s side: %w", i, [2]string{"ref", "change"}[side], err)
			}
			_ = os.RemoveAll(wd)
			pair[side] = res
		}
		for side := range pair {
			runs[side] = append(runs[side], pair[side])
		}
		fmt.Printf("pair %2d (%s first):", i, [2]string{"ref", "change"}[order[0]])
		for _, m := range bf.EndToEnd {
			fmt.Printf("  %s %.4g→%.4g", m.Name, pair[0].Metrics[m.Name].Value, pair[1].Metrics[m.Name].Value)
		}
		fmt.Println()
	}

	fmt.Printf("\n| metric | ref median [q1, q3] | change median [q1, q3] | Δ median | change wins | claim rule |\n|---|---|---|---|---|---|\n")
	for _, m := range bf.EndToEnd {
		var a, b []float64
		wins, ties := 0, 0
		for i := 0; i < n; i++ {
			x, y := runs[0][i].Metrics[m.Name].Value, runs[1][i].Metrics[m.Name].Value
			a, b = append(a, x), append(b, y)
			switch {
			case x == y:
				ties++
			case (y > x) == (m.Better == "higher"):
				wins++
			}
		}
		am, aq1, aq3 := quartiles(a)
		bm, bq1, bq3 := quartiles(b)
		delta := 0.0
		if am != 0 {
			delta = 100 * (bm - am) / am
		}
		better := (bm > am) == (m.Better == "higher") && bm != am
		diff := bm - am
		if diff < 0 {
			diff = -diff
		}
		verdict := "not met"
		if better && 10*wins >= 9*n && diff > aq3-aq1 {
			verdict = "met"
		}
		fmt.Printf("| %s (%s, %s is better) | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f %% | %d/%d (%d ties) | %s |\n",
			m.Name, m.Unit, m.Better, am, aq1, aq3, bm, bq1, bq3, delta, wins, n, ties, verdict)
	}
	for side, name := range [2]string{"ref", "change"} {
		attempted, failed, incorrect := 0, 0, 0
		for _, r := range runs[side] {
			attempted += r.Attempted
			failed += r.Failed
			if !r.Correct {
				incorrect++
			}
		}
		fmt.Printf("%s: failed %d / attempted %d, %d of %d runs not correct\n", name, failed, attempted, incorrect, n)
	}
	return nil
}

func runBench(bin, wd, workload string, seed int64, seconds int) (resultLine, error) {
	var res resultLine
	cmd := exec.Command(bin, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Dir = wd
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%w\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

// quartiles returns the median and the lower and upper quartiles (linear
// interpolation between order statistics).
func quartiles(v []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.5), at(0.25), at(0.75)
}

// command runs one build step in dir, its output on our stderr.
func command(dir, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}
