package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"unidir/internal/obs"
	"unidir/internal/sig"
	"unidir/internal/smr"
	"unidir/internal/watch"
)

// runOptions is one workload run's invocation.
type runOptions struct {
	seed    int64
	seconds int
	quick   bool
	traced  bool
	scheme  sig.Scheme
	dir     string        // scratch root for data dirs; removed afterwards
	micro   time.Duration // per-function microbench time in a traced run; 0 skips
}

// runResult is what one workload run measured.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

func (r *runResult) set(name, unit string, perWindow []float64, samples int) {
	r.Metrics[name] = summarize(unit, perWindow, samples)
}

func (r *runResult) set1(name, unit string, v float64) {
	r.Metrics[name] = summary{Value: v, Unit: unit, Q1: v, Q3: v, Min: v, Max: v}
}

func (r *runResult) failf(n int, format string, a ...any) {
	r.Failed += n
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, a...))
	}
}

// sample is the process and cluster state at one window boundary.
type sample struct {
	at       time.Time
	cpu      time.Duration // user+sys of the whole process
	mallocs  uint64
	allocB   uint64
	gcPause  time.Duration
	rssMB    float64 // peak so far
	statuses []obs.Status
}

// processUsage is the process's user+sys CPU time and peak RSS so far.
func processUsage() (cpu time.Duration, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func takeSample(c *benchCluster) sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := sample{at: time.Now(), mallocs: ms.Mallocs, allocB: ms.TotalAlloc, gcPause: time.Duration(ms.PauseTotalNs)}
	s.cpu, s.rssMB = processUsage()
	for _, sp := range c.providers() {
		s.statuses = append(s.statuses, sp.Status())
	}
	return s
}

// setUp builds the cluster and preloads every key, several times over (see
// shape); each build is timed from nothing to the last preload ack, and the
// last one is kept for the measurement.
func setUp(w workload, opt runOptions, sh shape, res *runResult) (*benchCluster, *keyState, error) {
	var times []float64
	begin := time.Now()
	for s := 1; ; s++ {
		dir := filepath.Join(opt.dir, fmt.Sprintf("setup%d", s))
		t0 := time.Now()
		last := s >= sh.setupsMax || (s >= sh.setupsMin && t0.Sub(begin) >= setupBudget)
		var in *instruments
		if opt.traced && last {
			in = newInstruments(w.spec(opt.scheme, "").N()) // the kept cluster only: span buffers are large
		}
		c, err := newCluster(w, opt.scheme, dir, in)
		if err != nil {
			return nil, nil, fmt.Errorf("build cluster: %w", err)
		}
		state := newKeyState(w.keys, w.valueSize)
		buf := make([]byte, state.valueSize)
		failed, first := pipelineAll(w.keys, sweepDepth,
			func(k int) (result, error) {
				state.nextValue(k, buf)
				return c.kv.PutAsync(context.Background(), state.names[k], buf)
			},
			func(k int, r []byte, err error) error {
				if err != nil {
					return err
				}
				state.acked[k].Store(1)
				return checkPut(r)
			})
		res.Attempted += w.keys
		if failed > 0 {
			c.Close()
			return nil, nil, fmt.Errorf("preload: %d of %d puts failed: %w", failed, w.keys, first)
		}
		times = append(times, time.Since(t0).Seconds())
		if last {
			res.set("setup_s", "s", times, len(times))
			return c, state, nil
		}
		c.Close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}

// sweepDepth is how many operations the preload and the read-back keep in
// flight: one batch, whatever the workload's client window.
const sweepDepth = pinBatch

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runWorkload runs w once: set-up, warm-up, measured windows, output
// checks. A returned error means the run could not be made; failed checks
// are counted in the result.
func runWorkload(w workload, opt runOptions) (*runResult, error) {
	sh := shapeFor(opt.seconds, opt.quick)
	res := &runResult{Workload: w.name, Seed: opt.seed, Metrics: make(map[string]summary)}
	defer os.RemoveAll(opt.dir)

	c, state, err := setUp(w, opt, sh, res)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	auditor := watch.New(watch.Config{
		// Fetched anew each scrape: a restart replaces a replica.
		Sources: []watch.Source{{Name: "bench", Fetch: func(ctx context.Context) ([]obs.Status, error) {
			return watch.Local("0", c.providers()...).Fetch(ctx)
		}}},
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	auditor.Scrape(context.Background())

	ctx := context.Background()
	gen := newGenerator(wallClock{}, w, opt.seed, state,
		func(k string, v []byte) (result, error) { return c.kv.PutAsync(ctx, k, v) },
		func(k string) (result, error) { return c.kv.GetAsync(ctx, k) })
	start := time.Now()
	t0 := start.Add(sh.warm)
	var tr *tracedRun
	if opt.traced {
		tr = newTracedRun(c)
	}

	var samples []sample
	var rec *recovery
	if w.failover {
		samples, rec, err = runFailover(c, gen, tr, state, res, start, t0, time.Duration(opt.seconds)*time.Second)
		if err != nil {
			return nil, err
		}
	} else {
		samples = runWindows(c, gen, tr, start, t0, sh)
	}

	res.Attempted += int(gen.submitted.Load())
	if n := int(gen.failed.Load()); n > 0 {
		res.failf(n, "%d operations failed, first: %v", n, gen.firstErr)
	}
	readBack(c, state, res)
	audit(auditor, w, res)

	endToEndMetrics(res, gen, samples)
	if opt.traced {
		layerMetrics(res, w, gen, samples, tr, rec)
		if opt.micro > 0 {
			if err := microbench(res, opt); err != nil {
				return nil, err
			}
		}
	} else if rec != nil {
		rec.report(res)
	}
	return res, nil
}

// runWindows drives the generator through the warm-up and the measured
// windows, sampling the process at every boundary, and returns once every
// operation has completed.
func runWindows(c *benchCluster, gen *generator, tr *tracedRun, start, t0 time.Time, sh shape) []sample {
	gen.wrec = newRecorder(t0, sh)
	if gen.w.readWindow > 0 {
		gen.rrec = newRecorder(t0, sh)
	}
	gen.stopAt(gen.wrec.bounds[sh.windows])
	done := make(chan struct{})
	go func() { gen.run(start); close(done) }()
	var samples []sample
	for k, b := range gen.wrec.bounds {
		sleepUntil(b)
		if k == 0 {
			tr.begin()
		}
		if k == sh.windows {
			tr.end()
		}
		samples = append(samples, takeSample(c))
	}
	<-done
	return samples
}

// readBack reads every key through the ordering path: each must hold a
// version at least as new as the last acked write. A read the cluster sheds
// with the retryable overload code is retried, as a client would; how many
// were is reported (client.readback_retries), the rest of the outcome is
// checked.
func readBack(c *benchCluster, state *keyState, res *runResult) {
	ctx := context.Background()
	n := len(state.names)
	var shed []int
	failed, first := pipelineAll(n, sweepDepth,
		func(k int) (result, error) { return c.kv.GetOrderedAsync(ctx, state.names[k]) },
		func(k int, r []byte, err error) error {
			if errors.Is(err, smr.ErrOverloaded) {
				shed = append(shed, k)
				return nil
			}
			if err != nil {
				return err
			}
			return state.checkGet(k, state.acked[k].Load(), r)
		})
	for _, k := range shed {
		var err error
		for try := 0; try < 3; try++ {
			time.Sleep(50 * time.Millisecond)
			var call *smr.Call
			var r []byte
			if call, err = c.kv.GetOrderedAsync(ctx, state.names[k]); err == nil {
				if r, err = call.Result(); err == nil {
					err = state.checkGet(k, state.acked[k].Load(), r)
				}
			}
			if !errors.Is(err, smr.ErrOverloaded) {
				break
			}
		}
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	res.Attempted += n + len(shed)
	res.set1("client.readback_retries", "count", float64(len(shed)))
	if failed > 0 {
		res.failf(failed, "read-back: %d of %d keys failed, first: %v", failed, n, first)
	}
}

// audit double-scrapes the replicas' status through the internal/watch
// auditor (the first scrape was taken before the load): equal checkpoint
// digests, monotone trusted counters, one lease holder per term. After a
// restart the two rules built on process-lifetime counters do not apply
// (audit.go says so itself): a restarted replica resumes from its stable
// checkpoint and its proposal count starts over.
func audit(a *watch.Watcher, w workload, res *runResult) {
	a.Scrape(context.Background())
	rep := a.Scrape(context.Background())
	for _, e := range rep.ScrapeErrors {
		res.failf(1, "audit scrape: %s", e)
	}
	for _, v := range a.Violations() {
		if w.failover && (v.Rule == watch.RuleExecRegression || v.Rule == watch.RuleExecExceedsProposed) {
			continue
		}
		res.failf(1, "audit violation [%s]: %s", v.Rule, v.Detail)
	}
}

// endToEndMetrics computes every end-to-end metric per window over all op
// classes together and reports the median of the windows.
func endToEndMetrics(res *runResult, gen *generator, samples []sample) {
	lat := sortedWindows(gen.wrec, gen.rrec)
	var ops, p50, p90, avg, cpu, allocs []float64
	total := 0
	for w, l := range lat {
		n := float64(len(l))
		total += len(l)
		if n == 0 {
			res.failf(1, "window %d completed no operation", w)
			continue
		}
		// Rates over the interval between the two boundary samples as
		// taken, which is the window give or take the sampler's wake-up.
		a, b := samples[w], samples[w+1]
		ops = append(ops, n/b.at.Sub(a.at).Seconds())
		p50 = append(p50, ms(percentile(l, 0.50)))
		p90 = append(p90, ms(percentile(l, 0.90)))
		avg = append(avg, ms(mean(l)))
		cpu = append(cpu, float64((b.cpu-a.cpu).Microseconds())/n)
		allocs = append(allocs, float64(b.mallocs-a.mallocs)/n)
	}
	res.set("ops_per_s", "1/s", ops, total)
	res.set("lat_p50_ms", "ms", p50, total)
	res.set("lat_p90_ms", "ms", p90, total)
	res.set("client.lat_mean_ms", "ms", avg, total)
	res.set("proc.cpu_us_per_op", "us", cpu, total)
	res.set("allocs_per_op", "count", allocs, total)
	res.set1("peak_rss_mb", "MB", samples[len(lat)].rssMB)
}
