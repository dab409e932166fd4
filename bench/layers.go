package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"unidir/internal/obs"
	"unidir/internal/obs/tracing"
)

// tracedRun holds what a traced run captures at the two ends of its
// measured interval. All of it comes from outside the program source: the
// registry the layers already publish into, the spans they already emit,
// WAL file sizes, and the runtime's profilers. Every method is a no-op on
// a nil receiver, which is what an untraced run passes around.
type tracedRun struct {
	c            *benchCluster
	t0, t1       time.Time
	snap0, snap1 obs.Snapshot
	wal0, wal1   int64
	mem0, mem1   map[memKey]float64
	cpu          bytes.Buffer
	cpuErr       error
}

func newTracedRun(c *benchCluster) *tracedRun { return &tracedRun{c: c} }

func (t *tracedRun) begin() {
	if t == nil {
		return
	}
	t.t0 = time.Now()
	t.snap0 = t.c.in.reg.Snapshot()
	t.wal0 = t.c.walBytes()
	t.mem0 = memProfile()
	t.cpuErr = pprof.StartCPUProfile(&t.cpu)
}

func (t *tracedRun) end() {
	if t == nil {
		return
	}
	pprof.StopCPUProfile()
	t.t1 = time.Now()
	t.mem1 = memProfile()
	t.snap1 = t.c.in.reg.Snapshot()
	t.wal1 = t.c.walBytes()
}

// walBytes is the total size of the replicas' trusted-counter WALs.
func (c *benchCluster) walBytes() int64 {
	var sum int64
	for i := range c.nodes {
		if fi, err := os.Stat(filepath.Join(c.dataDir(i), "usig.wal")); err == nil {
			sum += fi.Size()
		}
	}
	return sum
}

// counter is the growth of every series of one base name over the run.
func (t *tracedRun) counter(base string) float64 {
	return float64(t.snap1.CounterSum(base) - t.snap0.CounterSum(base))
}

// histDelta merges every series of one histogram base name and returns the
// per-bucket growth over the run.
func (t *tracedRun) histDelta(base string) (bounds []float64, counts []float64, total float64) {
	for name, h1 := range t.snap1.Histograms {
		if b, _, _ := strings.Cut(name, "{"); b != base {
			continue
		}
		h0 := t.snap0.Histograms[name]
		if counts == nil {
			bounds, counts = h1.Bounds, make([]float64, len(h1.Counts))
		}
		for i := range h1.Counts {
			d := float64(h1.Counts[i])
			if i < len(h0.Counts) {
				d -= float64(h0.Counts[i])
			}
			if i < len(counts) {
				counts[i] += d
				total += d
			}
		}
	}
	return bounds, counts, total
}

// histQuantile interpolates the q-quantile inside its bucket; quantiles in
// the +Inf bucket read as the largest finite bound.
func histQuantile(bounds, counts []float64, total, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank, cum := q*total, 0.0
	for i, c := range counts {
		if cum+c >= rank && c > 0 {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(rank-cum)/c
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills in every per-layer metric the run itself can measure
// (the microbenches add theirs separately).
func layerMetrics(res *runResult, w workload, gen *generator, samples []sample, tr *tracedRun, rec *recovery) {
	first, last := samples[0], samples[len(samples)-1]
	secs := tr.t1.Sub(tr.t0).Seconds()
	ops := float64(gen.completedBetween(tr.t0, tr.t1))
	proto := w.protocol.String() + "_"

	// sig: real verifications and cache hits, from the fastverify counters
	// (PBFT keyrings verify directly and publish none).
	res.set1("sig.verifies_per_op", "count", ratio(tr.counter("sig_verifications_total"), ops))
	res.set1("sig.cache_hit_ratio", "ratio", ratio(tr.counter("sig_cache_hits_total"), tr.counter("sig_lookups_total")))

	// trusted: USIG attestations (the replicas' trusted-counter high-water
	// marks) and WAL bytes.
	var attests float64
	for _, b := range last.statuses {
		end := b.TrustedCounters["usig"]
		for _, a := range first.statuses {
			if a.Replica == b.Replica && end >= a.TrustedCounters["usig"] {
				attests += float64(end - a.TrustedCounters["usig"])
			}
		}
	}
	res.set1("trinc.attests_per_op", "count", ratio(attests, ops))
	res.set1("ctrstore.wal_bytes_per_op", "B", ratio(float64(tr.wal1-tr.wal0), ops))

	// tcpnet: frames, bytes, and how many frames one flush carries.
	frames := tr.counter("tcpnet_tx_frames_total")
	_, _, flushes := tr.histDelta("tcpnet_batch_frames")
	res.set1("tcpnet.frames_per_op", "count", ratio(frames, ops))
	res.set1("tcpnet.bytes_per_op", "B", ratio(tr.counter("tcpnet_tx_bytes_total"), ops))
	res.set1("tcpnet.frames_per_flush", "count", ratio(frames, flushes))

	// smr: admission sheds on both sides, and the read path's outcomes.
	res.set1("smr.sheds", "count", tr.counter(proto+"requests_shed_total")+tr.counter("smr_submit_sheds_total"))
	res.set1("smr.read_escalations", "count", tr.counter("smr_read_escalations_total"))
	res.set1("smr.leased_read_ratio", "ratio", ratio(tr.counter("smr_leased_reads_total"), tr.counter("smr_reads_completed_total")))

	// order: batching, commit latency, and the rare events.
	n := float64(len(first.statuses))
	res.set1("order.reqs_per_batch", "count", ratio(tr.counter(proto+"requests_executed_total"), tr.counter(proto+"batches_executed_total")))
	res.set1("order.batches_per_s", "1/s", ratio(tr.counter(proto+"batches_proposed_total"), secs))
	bounds, counts, total := tr.histDelta(proto + "commit_latency_seconds")
	res.set1("order.commit_p50_us", "us", 1e6*histQuantile(bounds, counts, total, 0.5))
	res.set1("order.view_changes", "count", float64(maxView(last.statuses)-maxView(first.statuses)))
	res.set1("order.checkpoints", "count", ratio(tr.counter(proto+"checkpoints_taken_total"), n))
	res.set1("order.state_transfers", "count", tr.counter(proto+"state_transfers_total"))
	res.set1("order.paced_proposals", "count", tr.counter(proto+"paced_proposals_total"))
	var lag uint64
	for _, s := range samples[1:] {
		if l := execLag(s.statuses); l > lag {
			lag = l
		}
	}
	res.set1("order.exec_lag_max", "count", float64(lag))

	phaseMetrics(res, tr)

	// client / process
	wl, all := sortedWindows(gen.wrec), sortedWindows(gen.wrec, gen.rrec)
	var wp50, rp50, rp90, p99 []float64
	var worst time.Duration
	for _, r := range sortedWindows(gen.rrec) {
		rp50 = append(rp50, ms(percentile(r, 0.50)))
		rp90 = append(rp90, ms(percentile(r, 0.90)))
	}
	for i, l := range wl {
		wp50 = append(wp50, ms(percentile(l, 0.50)))
		p99 = append(p99, ms(percentile(all[i], 0.99)))
		if m := percentile(all[i], 1); m > worst {
			worst = m
		}
	}
	res.set("client.write_p50_ms", "ms", wp50, gen.wrec.binned())
	if gen.rrec != nil {
		res.set("client.read_p50_ms", "ms", rp50, gen.rrec.binned())
		res.set("client.read_p90_ms", "ms", rp90, gen.rrec.binned())
	}
	res.set("client.lat_p99_ms", "ms", p99, int(ops))
	res.set1("client.lat_max_ms", "ms", ms(worst))
	res.set1("client.gen_late_max_ms", "ms", ms(gen.lateMax))
	stalls := gen.wrec.stalls
	if gen.rrec != nil && gen.rrec.stalls < stalls {
		// A stall stops both classes; a gap in only one is that class idling.
		stalls = gen.rrec.stalls
	}
	res.set1("client.stalls_50ms", "count", float64(stalls))
	res.set1("proc.gc_pause_ms", "ms", ms(last.gcPause-first.gcPause))
	res.set1("proc.alloc_kb_per_op", "kB", ratio(float64(last.allocB-first.allocB)/1000, ops))

	// budget
	if tr.cpuErr != nil {
		res.failf(1, "cpu profile: %v", tr.cpuErr)
	} else if cpu, err := parseCPUProfile(tr.cpu.Bytes()); err != nil {
		res.failf(1, "%v", err)
	} else {
		for l, v := range shares(cpu) {
			res.set1("cpu_share."+l, "ratio", v)
		}
	}
	for l, v := range shares(allocSamples(tr.mem0, tr.mem1)) {
		res.set1("alloc_share."+l, "ratio", v)
	}

	if rec != nil {
		rec.report(res)
	}
}

// phaseMetrics reduces the run's spans to the mean per-request phase
// durations along the critical path; they sum to the traced client latency.
func phaseMetrics(res *runResult, tr *tracedRun) {
	var spans []tracing.Span
	for _, s := range tracing.Merge(tr.c.in.spans...) {
		if !s.Start.Before(tr.t0) {
			spans = append(spans, s)
		}
	}
	sum := tracing.Summarize(tracing.Breakdown(tracing.AlignClocks(spans)))
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	names := map[string]string{
		"batch-wait": "phase.batch_wait_us", "propose": "phase.propose_us",
		"commit-quorum": "phase.commit_quorum_us", "execute": "phase.execute_us",
		"reply": "phase.reply_us", "other": "phase.other_us",
	}
	for _, p := range sum.Phases {
		d := p.Dur
		if p.Name == "propose" {
			d -= sum.Attest // ui-attest is nested in propose; report them apart
		}
		if name, ok := names[p.Name]; ok {
			res.set1(name, "us", us(d))
		}
	}
	res.set1("phase.ui_attest_us", "us", us(sum.Attest))
	res.set1("phase.client_us", "us", us(sum.Total))
	res.set1("phase.samples", "count", float64(sum.Requests))
}

func maxView(sts []obs.Status) uint64 {
	var v uint64
	for _, s := range sts {
		if s.View > v {
			v = s.View
		}
	}
	return v
}

// execLag is the largest gap in executed batches between two replicas.
func execLag(sts []obs.Status) uint64 {
	var lo, hi uint64
	seen := false
	for _, s := range sts {
		if s.Stale {
			continue
		}
		if !seen || s.ExecCount < lo {
			lo = s.ExecCount
		}
		if s.ExecCount > hi {
			hi = s.ExecCount
		}
		seen = true
	}
	return hi - lo
}
