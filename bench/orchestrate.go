package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"unidir/internal/sig"
)

// runAll runs every workload, each in a fresh child process of this same
// binary, so set-up time, peak RSS and heap/GC state are per workload and
// not inherited from the one before. The children's tables stream through;
// their full results are collected into one result set.
func runAll(seed int64, seconds int, traced, quick bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Header: newHeader(sig.Ed25519.String()), Seed: seed, Seconds: seconds,
		Traced: traced, Workloads: make(map[string]*runResult)}
	printHeader(os.Stdout, set.Header)
	fmt.Printf("bench: seed=%d seconds=%d traced=%v quick=%v\n", seed, seconds, traced, quick)
	failed := 0
	for i, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds)}
		if traced {
			// The microbenches do not depend on the workload: the first
			// child runs them at full length, the others skip them.
			micro := time.Duration(0)
			if i == 0 {
				micro = time.Second
			}
			args = append(args, "-trace", "1", "-micro", micro.String())
		}
		if quick {
			args = append(args, "-quick")
		}
		fmt.Printf("\n=== %s: %s\n", w.name, w.why)
		res, err := runChild(self, args)
		if err != nil {
			failed++
			fmt.Printf("=== %s: %v\n", w.name, err)
		}
		if res != nil {
			set.Workloads[w.name] = res
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", failed, len(workloads))
	}
	return nil
}

// runChild runs one workload child, echoing its output minus the two
// machine-readable lines, and returns the full result it printed.
func runChild(self string, args []string) (*runResult, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var res *runResult
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "result: "):
			res = new(runResult)
			if err := json.Unmarshal([]byte(line[len("result: "):]), res); err != nil {
				res = nil
			}
		case strings.HasPrefix(line, "{"), strings.HasPrefix(line, "bench: "):
			// the contract line and the repeated header
		default:
			fmt.Println(line)
		}
	}
	if err := cmd.Wait(); err != nil {
		return res, err
	}
	if res == nil {
		return nil, fmt.Errorf("child printed no result")
	}
	return res, nil
}
