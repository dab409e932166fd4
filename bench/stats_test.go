package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 10; i++ {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 5 * time.Millisecond}, {0.9, 9 * time.Millisecond}, {0.99, 10 * time.Millisecond}, {1, 10 * time.Millisecond}, {0, time.Millisecond}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of an empty sample must be 0")
	}
}

func TestSummarizeMedianOfWindows(t *testing.T) {
	s := summarize("ms", []float64{9, 1, 5}, 30)
	if s.Value != 5 || s.Q1 != 3 || s.Q3 != 7 || s.Min != 1 || s.Max != 9 || s.Samples != 30 || s.Unit != "ms" {
		t.Fatalf("odd windows: %+v", s)
	}
	if s := summarize("ms", []float64{4, 2}, 2); s.Value != 3 {
		t.Fatalf("even windows: median %v, want 3", s.Value)
	}
	if s := summarize("ms", nil, 0); s.Value != 0 || s.Unit != "ms" {
		t.Fatalf("no windows: %+v", s)
	}
}

// TestRecorderWindows: completions are binned by completion time, the
// warm-up and the drain are left out, and percentiles are per window.
func TestRecorderWindows(t *testing.T) {
	start := time.Unix(50, 0)
	r := newRecorder(start, shape{windows: 3, window: time.Second})
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	r.add(at(-10), time.Millisecond)    // warm-up: not binned
	r.add(at(0), 3*time.Millisecond)    // first instant of window 0
	r.add(at(999), 1*time.Millisecond)  // window 0
	r.add(at(1000), 7*time.Millisecond) // boundary belongs to window 1
	r.add(at(2500), 2*time.Millisecond) // window 2; 1.5 s after the last completion: a stall
	r.add(at(3000), 9*time.Millisecond) // past the last boundary: drain
	w := sortedWindows(r, nil)
	if len(w[0]) != 2 || w[0][0] != time.Millisecond || len(w[1]) != 1 || len(w[2]) != 1 {
		t.Fatalf("windows %v", w)
	}
	if r.binned() != 4 {
		t.Fatalf("binned=%d, want 4", r.binned())
	}
	if r.stalls != 2 {
		t.Fatalf("stalls=%d, want 2 (the 999 ms and 1.5 s gaps)", r.stalls)
	}
	other := newRecorder(start, shape{windows: 3, window: time.Second})
	other.add(at(500), 2*time.Millisecond)
	if both := sortedWindows(r, other)[0]; len(both) != 3 || both[1] != 2*time.Millisecond {
		t.Fatalf("two classes together, window 0: %v", both)
	}
}

func TestVerdict(t *testing.T) {
	base := summary{Value: 100, Q1: 95, Q3: 105}
	for _, c := range []struct {
		name   string
		b      summary
		better string
		want   string
	}{
		{"lower-better, 5% worse within 8%", summary{Value: 105, Q1: 104, Q3: 106}, "lower", "pass"},
		{"lower-better, improved", summary{Value: 50, Q1: 49, Q3: 51}, "lower", "pass"},
		{"lower-better, 20% worse, ranges apart", summary{Value: 120, Q1: 118, Q3: 122}, "lower", "regress"},
		{"lower-better, 10% worse, ranges overlap", summary{Value: 110, Q1: 100, Q3: 120}, "lower", "unresolved"},
		{"higher-better, 20% lower", summary{Value: 80, Q1: 79, Q3: 81}, "higher", "regress"},
		{"higher-better, higher", summary{Value: 130, Q1: 129, Q3: 131}, "higher", "pass"},
	} {
		if got, _ := verdict(base, c.b, c.better, 0.08); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
