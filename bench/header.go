package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// header is the environment and the pinned configuration a result was
// measured under; it is printed before every run and stored in result
// files.
type header struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Scheme     string `json:"scheme"`
	Transport  string `json:"transport"`
	LinkDelay  string `json:"link_delay"`
	Pinned     string `json:"pinned"`
}

func newHeader(scheme string) header {
	return header{
		Commit:     commit(),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Scheme:     scheme,
		Transport:  "tcpnet over 127.0.0.1, replicas, client and generator in one process",
		LinkDelay:  "loopback, none injected: latency is processor + timer + scheduler time",
		Pinned: fmt.Sprintf("gomaxprocs=%d f=%d minbft n=%d (counter WAL per replica, no fsync) pbft n=%d (volatile) "+
			"batch=%d batch_deadline=%v ckpt=%d lease=%v lease_quorum=protocol-default admit_pending=%d pace_depth=%d "+
			"timeout=%v (failover 500ms) client_retry=%v keys=%dx%dB (w-bigstate 16384x512B) trace_rate=1/%d fastverify=on",
			pinProcs, pinF, 2*pinF+1, 3*pinF+1, pinBatch, pinBatchDeadline, pinCkpt, pinLeaseTerm,
			pinAdmitPending, pinPaceDepth, pinTimeout, pinClientRetry, pinKeys, pinValueSize, pinTraceRate),
	}
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printHeader(w io.Writer, h header) {
	fmt.Fprintf(w, "bench: commit=%s %s GOMAXPROCS=%d nproc=%d cpu=%q\n", h.Commit, h.Go, h.GOMAXPROCS, h.NumCPU, h.CPUModel)
	fmt.Fprintf(w, "bench: scheme=%s transport=%s\n", h.Scheme, h.Transport)
	fmt.Fprintf(w, "bench: link delay: %s\n", h.LinkDelay)
	fmt.Fprintf(w, "bench: pinned: %s\n", h.Pinned)
}
