// Package obs is the library's dependency-free observability layer: a
// metrics registry of atomic counters, gauges, and fixed-bucket histograms,
// plus a structured event-trace ring buffer (trace.go) and an HTTP debug
// surface (http.go) serving Prometheus text, expvar-style JSON, recent
// trace events, and pprof.
//
// Design constraints, in order:
//
//   - Zero dependencies and zero cost when absent. Every metric type is
//     nil-safe: calling Add/Set/Observe/Record on a nil *Counter, *Gauge,
//     *Histogram, or *Trace is a no-op, so instrumented code carries no
//     "is monitoring on?" branches — a component built without a Registry
//     simply holds nil metrics.
//   - Hot-path writes are single atomic operations (no locks, no maps).
//     The registry lock is taken only at get-or-create and snapshot time.
//   - Names carry optional Prometheus-style labels inline, rendered by
//     Name: Name("tcpnet_queue_depth", "peer", 3) -> `tcpnet_queue_depth{peer="3"}`.
//     The exporters pass label blocks through, so one registry can hold
//     per-replica or per-peer series without a label abstraction.
//
// Snapshot returns a consistent read for tests and assertions: histogram
// totals are derived from the bucket counts themselves, so Count always
// equals the sum of the buckets even under concurrent writers.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is unusable;
// obtain one from Registry.Counter. All methods are nil-safe no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64. All methods are nil-safe no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add increases (or, with negative n, decreases) the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations <= bounds[i]; a final implicit +Inf bucket catches the rest.
// All methods are nil-safe no-ops.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-updated
	clamps *Counter        // negative observations clamped to 0 (registry-created)
}

// Observe records one value. Negative values can only come from clock
// anomalies (an interval measured across a step of a non-monotonic source);
// recording one would permanently corrupt Sum, so they are clamped to 0 and
// counted in the histogram's <base>_clock_clamps_total companion counter.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
		h.clamps.Inc()
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// SizeBuckets suit count-valued distributions (batch sizes, queue depths).
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// LatencyBuckets suit second-valued durations from 100µs to 10s.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry is a namespace of metrics and traces. The zero value is unusable;
// use NewRegistry. Get-or-create accessors are safe for concurrent use and
// idempotent: the first caller for a name creates the series, later callers
// share it. A nil *Registry hands out nil metrics, making the whole layer a
// no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	traces   map[string]*Trace
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		traces:   make(map[string]*Trace),
	}
}

// Name renders a metric name with label pairs: Name("x", "peer", 3) returns
// `x{peer="3"}`. Pairs alternate label, value; values are formatted with
// fmt.Sprint. With no pairs it returns base unchanged.
func Name(base string, pairs ...any) string {
	if len(pairs) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", pairs[i], fmt.Sprint(pairs[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// baseOf strips an inline label block: `x{peer="3"}` -> `x`.
func baseOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Counter returns the named counter, creating it on first use. Nil registry
// returns nil (a no-op counter).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (strictly ascending) on first use. Later callers share the
// first creation's buckets; the bounds argument is then ignored.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		b := append([]float64(nil), bounds...)
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		cn := suffixed(name, "_clock_clamps_total")
		if h.clamps = r.counters[cn]; h.clamps == nil {
			h.clamps = &Counter{}
			r.counters[cn] = h.clamps
		}
		r.hists[name] = h
	}
	return h
}

// Trace returns the named trace ring, creating it with the given capacity on
// first use (later capacities are ignored).
func (r *Registry) Trace(name string, capacity int) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.traces[name]
	if t == nil {
		t = NewTrace(capacity)
		r.traces[name] = t
	}
	return t
}

// HistogramSnapshot is one histogram's state at snapshot time. Counts[i] is
// the (non-cumulative) number of observations <= Bounds[i]; the final extra
// entry is the +Inf bucket. Count is always the sum of Counts.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot is a point-in-time copy of every metric, for tests and the
// exporters.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every metric. Histogram totals are derived from the bucket
// counts read at snapshot time, so Count == sum(Counts) holds even while
// writers race the snapshot. Nil registry returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Sum:    math.Float64frombits(h.sum.Load()),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
			hs.Count += hs.Counts[i]
		}
		s.Histograms[name] = hs
	}
	return s
}

// Counter returns the exact named counter's value (0 if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// CounterSum sums every counter series of the given base name, with or
// without labels: CounterSum("x") covers `x`, `x{a="1"}`, `x{a="2"}`, ...
func (s Snapshot) CounterSum(base string) uint64 {
	var sum uint64
	for name, v := range s.Counters {
		if baseOf(name) == base {
			sum += v
		}
	}
	return sum
}

// GaugeSum sums every gauge series of the given base name.
func (s Snapshot) GaugeSum(base string) int64 {
	var sum int64
	for name, v := range s.Gauges {
		if baseOf(name) == base {
			sum += v
		}
	}
	return sum
}

// HistogramCount sums the observation counts of every histogram series of
// the given base name.
func (s Snapshot) HistogramCount(base string) uint64 {
	var sum uint64
	for name, h := range s.Histograms {
		if baseOf(name) == base {
			sum += h.Count
		}
	}
	return sum
}

// HistogramQuantile estimates the q-quantile (q in [0, 1]) across every
// histogram series of the given base name, Prometheus-style: the target
// rank is located in the merged cumulative bucket counts and linearly
// interpolated within its bucket. Series are merged by summing per-bucket
// counts (label variants of one base share bucket bounds by construction;
// a series whose bounds differ from the first is skipped). Quantiles that
// land in the +Inf bucket return the largest finite bound — the histogram
// cannot resolve beyond it. ok is false when no series of the base holds
// any observations.
func (s Snapshot) HistogramQuantile(base string, q float64) (v float64, ok bool) {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	var bounds []float64
	var counts []uint64
	for name, h := range s.Histograms {
		if baseOf(name) != base {
			continue
		}
		if bounds == nil {
			bounds = h.Bounds
			counts = append([]uint64(nil), h.Counts...)
			continue
		}
		if len(h.Bounds) != len(bounds) {
			continue
		}
		same := true
		for i := range bounds {
			if h.Bounds[i] != bounds[i] {
				same = false
				break
			}
		}
		if !same {
			continue
		}
		for i := range counts {
			counts[i] += h.Counts[i]
		}
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, false
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: unresolvable past the largest finite bound.
			if len(bounds) == 0 {
				return 0, true
			}
			return bounds[len(bounds)-1], true
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi, true
		}
		frac := (rank - (cum - float64(c))) / float64(c)
		return lo + (hi-lo)*frac, true
	}
	if len(bounds) == 0 {
		return 0, true
	}
	return bounds[len(bounds)-1], true
}
