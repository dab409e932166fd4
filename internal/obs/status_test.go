package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestHistogramQuantileEmpty(t *testing.T) {
	r := NewRegistry()
	s := r.Snapshot()
	if v, ok := s.HistogramQuantile("h", 0.5); ok || v != 0 {
		t.Fatalf("empty snapshot quantile = (%v, %v), want (0, false)", v, ok)
	}
	// A registered histogram with zero observations is still "empty".
	r.Histogram("h", []float64{1, 2})
	if v, ok := r.Snapshot().HistogramQuantile("h", 0.5); ok || v != 0 {
		t.Fatalf("zero-count quantile = (%v, %v), want (0, false)", v, ok)
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10})
	for i := 0; i < 4; i++ {
		h.Observe(5)
	}
	s := r.Snapshot()
	// All mass in [0, 10]: the median interpolates to the bucket midpoint.
	if v, ok := s.HistogramQuantile("h", 0.5); !ok || v != 5 {
		t.Fatalf("q0.5 = (%v, %v), want (5, true)", v, ok)
	}
	if v, ok := s.HistogramQuantile("h", 1); !ok || v != 10 {
		t.Fatalf("q1 = (%v, %v), want (10, true)", v, ok)
	}
	// Observations past the last bound land in +Inf; the estimate clamps
	// to the largest finite bound.
	h.Observe(100)
	if v, ok := r.Snapshot().HistogramQuantile("h", 1); !ok || v != 10 {
		t.Fatalf("q1 with +Inf mass = (%v, %v), want (10, true)", v, ok)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 3, 3} {
		h.Observe(v)
	}
	s := r.Snapshot()
	// 8 observations; rank(0.5) = 4 falls in the (2, 4] bucket holding 5
	// observations after a cumulative 3: 2 + 2*(4-3)/5 = 2.4.
	v, ok := s.HistogramQuantile("h", 0.5)
	if !ok || math.Abs(v-2.4) > 1e-9 {
		t.Fatalf("q0.5 = (%v, %v), want (2.4, true)", v, ok)
	}
	// Out-of-range q clamps.
	if v, ok := s.HistogramQuantile("h", -1); !ok || v != 0 {
		t.Fatalf("q<0 = (%v, %v), want (0, true)", v, ok)
	}
}

func TestHistogramQuantileMergesLabeledSeries(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{1, 2}
	r.Histogram(Name("h", "g", 0), bounds).Observe(0.5)
	r.Histogram(Name("h", "g", 1), bounds).Observe(1.5)
	r.Histogram(Name("h", "g", 1), bounds).Observe(1.5)
	s := r.Snapshot()
	// Merged counts: [1, 2]. rank(0.9) = 2.7 -> (1, 2] bucket.
	v, ok := s.HistogramQuantile("h", 0.9)
	if !ok || v <= 1 || v > 2 {
		t.Fatalf("merged q0.9 = (%v, %v), want in (1, 2]", v, ok)
	}
}

func TestSetBuildInfo(t *testing.T) {
	r := NewRegistry()
	SetBuildInfo(r, "protocol", "minbft")
	s := r.Snapshot()
	found := ""
	for name, v := range s.Gauges {
		if baseOf(name) == "unidir_build_info" {
			found = name
			if v != 1 {
				t.Fatalf("unidir_build_info = %d, want 1", v)
			}
		}
	}
	if found == "" {
		t.Fatalf("unidir_build_info gauge missing: %v", s.Gauges)
	}
	for _, label := range []string{`version=`, `go=`, `protocol="minbft"`} {
		if !strings.Contains(found, label) {
			t.Fatalf("unidir_build_info name %q missing label %s", found, label)
		}
	}
	SetBuildInfo(nil) // must not panic
}

type fixedStatus struct{ st Status }

func (f fixedStatus) Status() Status { return f.st }

func TestHandlerStatusEndpoint(t *testing.T) {
	r := NewRegistry()
	h := Handler(r,
		WithStatus(fixedStatus{Status{Protocol: "minbft", Replica: 0, View: 2}},
			fixedStatus{Status{Protocol: "minbft", Replica: 1}}),
	)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/status", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/status = %d, want 200", rec.Code)
	}
	var body struct {
		Replicas []Status `json:"replicas"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(body.Replicas) != 2 {
		t.Fatalf("replicas = %d, want 2", len(body.Replicas))
	}
	if body.Replicas[0].View != 2 || body.Replicas[1].Replica != 1 {
		t.Fatalf("replicas = %+v", body.Replicas)
	}

	// Index lists the endpoint.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "/debug/status") {
		t.Fatalf("index = %d %q, want 200 mentioning /debug/status", rec.Code, rec.Body.String())
	}

	// Unknown paths still 404 despite the "/" index handler.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("/nope = %d, want 404", rec.Code)
	}
}

func TestReadyzReason(t *testing.T) {
	ready, reason := false, "view change in progress"
	h := Handler(NewRegistry(), WithReadinessDetail(func() (bool, string) {
		return ready, reason
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), "not ready: view change in progress") {
		t.Fatalf("/readyz = %d %q", rec.Code, rec.Body.String())
	}
	ready = true
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("/readyz after ready = %d, want 200", rec.Code)
	}
}

// TestLabeledConcurrentScrape exercises the doctor's steady state under the
// race detector: writers creating and mutating labeled series while
// scrapers snapshot and render concurrently.
func TestLabeledConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	const writers, iters = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter(Name("writes_total", "g", g))
			h := r.Histogram(Name("latency", "g", g), []float64{1, 2, 4})
			for i := 0; i < iters; i++ {
				c.Inc()
				r.Gauge(Name("depth", "g", g)).Set(int64(i))
				h.Observe(float64(i % 5))
				// New names mid-flight force store-map growth under scrape.
				r.Counter(Name("dyn", "g", g, "i", i%8)).Inc()
			}
		}(g)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				snap := r.Snapshot()
				_ = snap.CounterSum("writes_total")
				_, _ = snap.HistogramQuantile("latency", 0.99)
				var sb strings.Builder
				r.WritePrometheus(&sb)
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().CounterSum("writes_total"); got != writers*iters {
		t.Fatalf("writes_total = %d, want %d", got, writers*iters)
	}
}
