package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every accessor on a nil registry returns a nil metric, and every
	// method on those is a no-op; nothing here may panic.
	r.Counter("c").Inc()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(1)
	r.Gauge("g").Add(1)
	r.Histogram("h", SizeBuckets).Observe(2)
	r.Trace("t", 8).Record("kind", "detail %d", 1)
	if got := r.Trace("t", 8).Events(); got != nil {
		t.Fatalf("nil trace events = %v, want nil", got)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	if c := r.Counter("c").Value(); c != 0 {
		t.Fatalf("nil counter value = %d", c)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	// Upper bounds are inclusive, like Prometheus `le`.
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 9} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	want := []uint64{2, 2, 2, 1} // <=1: {0.5,1}; <=2: {1.5,2}; <=4: {3,4}; +Inf: {9}
	if len(s.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 0.5+1+1.5+2+3+4+9 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestSnapshotConsistentUnderConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4, 8})
	c := r.Counter("ops")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			v := float64(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(v)
				c.Inc()
				v += 1.7
				if v > 16 {
					v = 0.3
				}
			}
		}(w)
	}
	// Histogram snapshot totals are derived from the buckets themselves, so
	// Count must equal the bucket sum on every snapshot taken mid-flight.
	for i := 0; i < 200; i++ {
		s := r.Snapshot().Histograms["lat"]
		var sum uint64
		for _, n := range s.Counts {
			sum += n
		}
		if sum != s.Count {
			t.Fatalf("snapshot %d: bucket sum %d != count %d", i, sum, s.Count)
		}
	}
	close(stop)
	wg.Wait()
	final := r.Snapshot()
	if final.Histograms["lat"].Count != final.Counters["ops"] {
		t.Fatalf("quiesced: histogram count %d != counter %d",
			final.Histograms["lat"].Count, final.Counters["ops"])
	}
}

func TestTraceWraparound(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Record("k", "event %d", i)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	// Oldest-first, and only the newest capacity survive.
	for i, ev := range evs {
		wantSeq := uint64(6 + i)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if want := "event " + string(rune('6'+i)); ev.Detail != want {
			t.Fatalf("event %d detail = %q, want %q", i, ev.Detail, want)
		}
	}
}

func TestTracePartialFill(t *testing.T) {
	tr := NewTrace(8)
	tr.Record("a", "one")
	tr.Record("b", "two")
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Detail != "one" || evs[1].Detail != "two" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestName(t *testing.T) {
	if got := Name("x"); got != "x" {
		t.Fatalf("Name bare = %q", got)
	}
	if got := Name("x", "peer", 3); got != `x{peer="3"}` {
		t.Fatalf("Name one label = %q", got)
	}
	if got := Name("x", "a", 1, "b", "z"); got != `x{a="1",b="z"}` {
		t.Fatalf("Name two labels = %q", got)
	}
	if got := baseOf(`x{a="1"}`); got != "x" {
		t.Fatalf("baseOf = %q", got)
	}
}

func TestSnapshotSumHelpers(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("sent", "peer", 1)).Add(3)
	r.Counter(Name("sent", "peer", 2)).Add(4)
	r.Counter("other").Add(100)
	r.Gauge(Name("depth", "peer", 1)).Set(5)
	r.Gauge(Name("depth", "peer", 2)).Set(6)
	r.Histogram(Name("sz", "r", 0), SizeBuckets).Observe(2)
	r.Histogram(Name("sz", "r", 1), SizeBuckets).Observe(3)
	s := r.Snapshot()
	if got := s.CounterSum("sent"); got != 7 {
		t.Fatalf("CounterSum = %d, want 7", got)
	}
	if got := s.Counter(Name("sent", "peer", 1)); got != 3 {
		t.Fatalf("Counter = %d, want 3", got)
	}
	if got := s.GaugeSum("depth"); got != 11 {
		t.Fatalf("GaugeSum = %d, want 11", got)
	}
	if got := s.HistogramCount("sz"); got != 2 {
		t.Fatalf("HistogramCount = %d, want 2", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("reqs", "peer", 1)).Add(2)
	r.Gauge("depth").Set(-3)
	h := r.Histogram("lat", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE reqs counter",
		`reqs{peer="1"} 2`,
		"# TYPE depth gauge",
		"depth -3",
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="2"} 2`,
		`lat_bucket{le="+Inf"} 3`,
		"lat_sum 11",
		"lat_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusLabelledHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram(Name("sz", "replica", 0), []float64{4}).Observe(2)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`sz_bucket{replica="0",le="4"} 1`,
		`sz_bucket{replica="0",le="+Inf"} 1`,
		`sz_sum{replica="0"} 2`,
		`sz_count{replica="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(9)
	r.Trace("events", 8).Record("view-change", "view %d", 2)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "hits 9") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, `"hits": 9`) || !json.Valid([]byte(out)) {
		t.Fatalf("/debug/vars missing counter or invalid JSON:\n%s", out)
	}
	if out := get("/debug/trace"); !strings.Contains(out, "view-change") {
		t.Fatalf("/debug/trace missing event:\n%s", out)
	}
	if out := get("/debug/trace?name=absent"); strings.Contains(out, "view-change") {
		t.Fatalf("/debug/trace filter leaked events:\n%s", out)
	}
	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("pprof index: %v (resp %+v)", err, resp)
	}
	resp.Body.Close()
}
