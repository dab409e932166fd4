package main

import (
	"fmt"
	"time"

	"unidir/internal/cluster"
	"unidir/internal/sig"
	"unidir/internal/smr"
)

// Pinned configuration. Every knob a replica would otherwise take from a
// UNIDIR_* default is set here explicitly, so a result names what was on
// the path. The benchmark refuses to run when any UNIDIR_* variable is set
// (see checkEnv): the two knobs cluster.Spec cannot carry
// (UNIDIR_FASTVERIFY, UNIDIR_LEASE_QUORUM) would otherwise be read silently.
const (
	pinF             = 1
	pinBatch         = 64
	pinBatchDeadline = 100 * time.Microsecond
	pinCkpt          = 128
	pinLeaseTerm     = 250 * time.Millisecond
	pinPaceDepth     = 4096
	pinAdmitPending  = 4096
	pinTimeout       = 5 * time.Second
	pinClientRetry   = time.Second
	pinKeySeed       = 7 // key material; the workload seed only drives key choice
	pinTraceRate     = 16
	// One P for the whole process: replicas, client and generator take turns
	// on one core and the box's other core is left to the kernel and to
	// whoever else the host runs, so that a neighbour's burst does not take
	// time from the run (see README, "One core").
	pinProcs     = 1
	pinKeys      = 1024
	pinValueSize = 64
)

var pinAdmission = smr.AdmissionConfig{MaxPending: pinAdmitPending}

// workload is one named traffic mix. Names are the contract later issues
// cite; BENCHMARK.json repeats each name with its why.
type workload struct {
	name     string
	protocol cluster.Protocol
	// gated workloads are the ones BENCHMARK.json lists, so the ones the
	// driver runs; the others run in the all-workloads passes only.
	gated bool
	// openRate > 0 makes the workload open loop at that many PUT/s;
	// 0 means closed loop (the submitter blocks on the client window).
	openRate    int
	writeWindow int
	readWindow  int // 0: the workload issues no leased reads
	readPct     int // share of ops that are leased GETs, percent
	keys        int
	valueSize   int
	timeout     time.Duration // view-change timeout
	failover    bool          // kill and restart the view-0 primary mid-run
	noPacing    bool          // proposal pacing off instead of the pinned depth (see README, findings)
	overheadRef bool          // traced runs also measure an untraced reference (trace.overhead_pct)
	why         string
}

var workloads = []workload{
	{
		name: "w-light", protocol: cluster.MinBFT, gated: true, openRate: 400, writeWindow: 4096,
		keys: pinKeys, valueSize: pinValueSize, timeout: pinTimeout,
		why: "open loop 400 PUT/s, a third of the core: latency is the blocking chain (batch-wait, attest+WAL, 4 loopback hops, Ed25519 verifies, execute, reply); batches ~1, so batching work must show no change",
	},
	{
		name: "w-sat", protocol: cluster.MinBFT, gated: true, writeWindow: 64, overheadRef: true,
		keys: pinKeys, valueSize: pinValueSize, timeout: pinTimeout,
		why: "closed loop, window 64, 100% PUT: the core is saturated, so ops_per_s ~ 1 / CPU per op; the headline row, where signature, codec, tcpnet-coalescing and batching gains show",
	},
	{
		name: "pbft-sat", protocol: cluster.PBFT, gated: true, writeWindow: 64,
		keys: pinKeys, valueSize: pinValueSize, timeout: pinTimeout,
		why: "w-sat on PBFT n=4, the paper's comparison point: same smr/tcpnet/sig/wire code, three phases, 2f+1 quorums, no USIG, no WAL; trinc/ctrstore work must show no change here",
	},
	{
		name: "r-mix", protocol: cluster.MinBFT, gated: true, writeWindow: 64, readWindow: 256, readPct: 95,
		keys: pinKeys, valueSize: pinValueSize, timeout: pinTimeout,
		why: "closed loop, 95% leased GET (window 256) / 5% PUT (window 64): read server and read-batch codec do most of the work; the writes move the execute watermark, so a read gain that costs writes shows",
	},
	{
		name: "w-bigstate", protocol: cluster.MinBFT, writeWindow: 64,
		keys: 16384, valueSize: 512, timeout: pinTimeout,
		why: "w-sat over 16384 keys x 512 B (8 MiB state): every 128th batch takes a full-blob snapshot and checkpoint encode, so checkpoint work shows here and nowhere else",
	},
	{
		name: "failover", protocol: cluster.MinBFT, openRate: 500, writeWindow: 4096,
		keys: pinKeys, valueSize: pinValueSize, timeout: 500 * time.Millisecond, failover: true, noPacing: true,
		why: "open loop 500 PUT/s, kill the view-0 primary, run on 2 of 3, then restart it from its data dir: the only workload with a view change, WAL rehydration, state transfer and requests due with no leader",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// spec is the cluster.Spec every replica of w is built from; dataDir is
// per replica (MinBFT only: trusted-counter WAL + stable checkpoint).
func (w workload) spec(scheme sig.Scheme, dataDir string) cluster.Spec {
	s := cluster.Spec{
		Protocol:      w.protocol,
		F:             pinF,
		Scheme:        scheme,
		Timeout:       w.timeout,
		Batch:         pinBatch,
		Ckpt:          pinCkpt,
		BatchDeadline: pinBatchDeadline,
		Admission:     &pinAdmission,
		PaceDepth:     pinPaceDepth,
		LeaseTerm:     pinLeaseTerm,
		Seed:          pinKeySeed,
	}
	if w.noPacing {
		s.PaceDepth = -1
	}
	if w.protocol == cluster.MinBFT {
		s.DataDir = dataDir
	}
	return s
}

// shape is how long a run warms up and measures. Every metric is computed
// per window and reported as the median of the windows.
type shape struct {
	warm    time.Duration
	windows int
	window  time.Duration
	// Set-ups are timed setupsMin times at least, then for as long as they
	// have taken less than setupBudget together, setupsMax times at most; the
	// last one is the cluster measured.
	setupsMin, setupsMax int
}

const setupBudget = 1500 * time.Millisecond

// shapeFor splits `seconds` of measurement into one-second windows: many
// short ones, so that a burst of interference from outside the process
// spoils a few windows and leaves the median alone. quick is the smoke
// shape: one short window, one set-up.
func shapeFor(seconds int, quick bool) shape {
	if quick {
		return shape{warm: 200 * time.Millisecond, windows: 1, window: time.Second, setupsMin: 1, setupsMax: 1}
	}
	return shape{warm: 2 * time.Second, windows: seconds, window: time.Second, setupsMin: 3, setupsMax: 15}
}
