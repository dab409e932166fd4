package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// resultSet is one pass over all workloads, as -out writes it and
// -compare reads it.
type resultSet struct {
	Header    header                `json:"header"`
	Seed      int64                 `json:"seed"`
	Seconds   int                   `json:"seconds"`
	Traced    bool                  `json:"traced"`
	Workloads map[string]*runResult `json:"workloads"`
}

// benchmarkFile is the part of BENCHMARK.json the comparison needs: the
// regression bound fixed for each end-to-end metric.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict applies one metric's bound to a baseline value a and a candidate
// b: "pass" when b is no worse than a by more than the bound; otherwise
// "unresolved" when the middle halves of the two runs' own windows overlap
// (the spread inside a run is wider than the difference between them), else
// "regress".
func verdict(a, b summary, better string, bound float64) (string, float64) {
	if a.Value == 0 {
		return "unresolved", 0
	}
	worse := (b.Value - a.Value) / a.Value
	if better == "higher" {
		worse = -worse
	}
	switch {
	case worse <= bound:
		return "pass", worse
	case a.Q1 < a.Q3 && b.Q1 < b.Q3 && a.Q1 <= b.Q3 && b.Q1 <= a.Q3:
		return "unresolved", worse
	default:
		return "regress", worse
	}
}

// runCompare prints pass / regress / unresolved for every (workload,
// end-to-end metric) of two result files under BENCHMARK.json's bounds, and
// fails when anything regressed.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: -compare BASELINE.json CANDIDATE.json (run from the repo root, which holds BENCHMARK.json)")
	}
	var bf benchmarkFile
	if err := readJSON("BENCHMARK.json", &bf); err != nil {
		return err
	}
	var a, b resultSet
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	fmt.Printf("baseline  %s: commit=%s seed=%d seconds=%d\n", args[0], a.Header.Commit, a.Seed, a.Seconds)
	fmt.Printf("candidate %s: commit=%s seed=%d seconds=%d\n", args[1], b.Header.Commit, b.Seed, b.Seconds)
	fmt.Printf("%-11s %-14s %14s %14s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse", "bound", "verdict")
	regressed := 0
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			ma, oka := ra.Metrics[m.Name]
			mb, okb := rb.Metrics[m.Name]
			if !oka || !okb {
				continue
			}
			v, worse := verdict(ma, mb, m.Better, m.Bound)
			if v == "regress" {
				regressed++
			}
			fmt.Printf("%-11s %-14s %14.4f %14.4f %+7.1f%% %6.1f%%  %s\n",
				w.name, m.Name, ma.Value, mb.Value, 100*worse, 100*m.Bound, v)
		}
		if rb.Failed > 0 {
			regressed++
			fmt.Printf("%-11s %-14s candidate failed %d of %d checks  regress\n", w.name, "fail_ratio", rb.Failed, rb.Attempted)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressions", regressed)
	}
	return nil
}
