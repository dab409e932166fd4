package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of sorted by nearest rank; 0
// for an empty sample.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// summary is one metric over a run's windows: the reported value is the
// median of the per-window values, with the quartiles, the extremes and the
// number of samples behind them kept beside it.
type summary struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples,omitempty"`
}

func summarize(unit string, perWindow []float64, samples int) summary {
	if len(perWindow) == 0 {
		return summary{Unit: unit}
	}
	s := append([]float64(nil), perWindow...)
	sort.Float64s(s)
	return summary{Value: quantile(s, 0.5), Unit: unit, Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Min: s[0], Max: s[len(s)-1], Samples: samples}
}

// quantile interpolates linearly between the two nearest of the sorted
// values (the median of an even count is the mean of the middle two).
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stallGap is the completion gap, with work outstanding, that counts as a
// whole-process stall (client.stalls_50ms).
const stallGap = 50 * time.Millisecond

// recorder bins one op class's completions into the run's measured
// windows by completion time. Completions before the first boundary (the
// warm-up) or after the last (the drain) are left out. It is written by its
// class's awaiter goroutine alone and read once the generator has returned.
type recorder struct {
	bounds   []time.Time       // windows+1 boundaries
	lat      [][]time.Duration // per window, latency of each completion
	lastDone time.Time
	stalls   int // gaps over stallGap between completions inside the windows
}

func newRecorder(start time.Time, sh shape) *recorder {
	r := &recorder{lat: make([][]time.Duration, sh.windows)}
	for i := 0; i <= sh.windows; i++ {
		r.bounds = append(r.bounds, start.Add(time.Duration(i)*sh.window))
	}
	return r
}

// add records one completion observed at done with the given latency.
func (r *recorder) add(done time.Time, lat time.Duration) {
	last := r.lastDone
	r.lastDone = done
	w := r.windowOf(done)
	if w < 0 {
		return
	}
	r.lat[w] = append(r.lat[w], lat)
	if !last.Before(r.bounds[0]) && done.Sub(last) > stallGap {
		r.stalls++
	}
}

func (r *recorder) windowOf(t time.Time) int {
	if t.Before(r.bounds[0]) {
		return -1
	}
	for w := 1; w < len(r.bounds); w++ {
		if t.Before(r.bounds[w]) {
			return w - 1
		}
	}
	return -1
}

// binned is the number of completions inside the measured windows.
func (r *recorder) binned() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

// sortedWindows returns, per window, the latencies of the given recorders
// (nil ones skipped) together, in ascending order.
func sortedWindows(recs ...*recorder) [][]time.Duration {
	var out [][]time.Duration
	for _, r := range recs {
		if r == nil {
			continue
		}
		if out == nil {
			out = make([][]time.Duration, len(r.lat))
		}
		for w, l := range r.lat {
			out[w] = append(out[w], l...)
		}
	}
	for _, s := range out {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return out
}

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}
