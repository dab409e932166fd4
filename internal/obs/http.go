package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"

	"unidir/internal/obs/tracing"
)

// WritePrometheus renders the registry in Prometheus text exposition format.
// Metric names created via Name carry their label block through to the
// output; histogram buckets come out cumulative with the usual _bucket/_sum/
// _count series and a trailing +Inf bucket.
func (r *Registry) WritePrometheus(w io.Writer) {
	s := r.Snapshot()

	typed := make(map[string]bool)
	writeType := func(base, kind string) {
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		}
	}

	for _, name := range sortedKeys(s.Counters) {
		writeType(baseOf(name), "counter")
		fmt.Fprintf(w, "%s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		writeType(baseOf(name), "gauge")
		fmt.Fprintf(w, "%s %d\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		base := baseOf(name)
		writeType(base, "histogram")
		var cum uint64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(w, "%s %d\n", withLabel(name, "le", formatBound(bound)), cum)
		}
		fmt.Fprintf(w, "%s %d\n", withLabel(name, "le", "+Inf"), h.Count)
		fmt.Fprintf(w, "%s %g\n", suffixed(name, "_sum"), h.Sum)
		fmt.Fprintf(w, "%s %d\n", suffixed(name, "_count"), h.Count)
	}
}

// withLabel inserts one extra label into a (possibly already labelled)
// histogram series name and appends the _bucket suffix to its base:
// `x{peer="3"}` + le=1 -> `x_bucket{peer="3",le="1"}`.
func withLabel(name, label, value string) string {
	base := baseOf(name)
	existing := ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		existing = strings.TrimSuffix(name[i+1:], "}") + ","
	}
	return fmt.Sprintf("%s_bucket{%s%s=%q}", base, existing, label, value)
}

// suffixed appends a suffix to the base name, keeping any label block:
// `x{a="1"}` + _sum -> `x_sum{a="1"}`.
func suffixed(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b), "0"), ".")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// HandlerOption configures Handler's optional surfaces.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	spans       *tracing.SpanBuffer
	ready       func() bool
	readyDetail func() (bool, string)
	status      []StatusProvider
}

// WithSpans serves the buffer's completed distributed-tracing spans at
// /debug/spans as a JSON object {"total": N, "spans": [...]} (oldest first;
// total counts spans ever added, including those the ring has evicted).
func WithSpans(buf *tracing.SpanBuffer) HandlerOption {
	return func(c *handlerConfig) { c.spans = buf }
}

// WithReadiness makes /readyz consult ready: 200 while it returns true, 503
// otherwise. Without this option /readyz always reports ready.
func WithReadiness(ready func() bool) HandlerOption {
	return func(c *handlerConfig) { c.ready = ready }
}

// WithReadinessDetail is WithReadiness with a reason: while probe reports
// false, /readyz answers 503 with "not ready: <reason>" so operators can tell
// a view change from a state transfer without grepping logs. Takes precedence
// over WithReadiness when both are given.
func WithReadinessDetail(probe func() (bool, string)) HandlerOption {
	return func(c *handlerConfig) { c.readyDetail = probe }
}

// WithStatus serves the providers' snapshots at /debug/status as a JSON
// object {"replicas": [...]}.
func WithStatus(providers ...StatusProvider) HandlerOption {
	return func(c *handlerConfig) { c.status = providers }
}

// Handler returns an http.Handler exposing the registry:
//
//	/metrics       Prometheus text exposition
//	/debug/vars    expvar-style JSON snapshot (counters, gauges, histograms)
//	/debug/trace   JSON map of retained trace events; ?ring=<name> (or the
//	               older ?name=) selects one ring, ?n=<limit> keeps only the
//	               most recent limit events per ring
//	/debug/spans   completed tracing spans (with WithSpans)
//	/debug/status  per-replica protocol status (with WithStatus): JSON
//	               {"replicas": [...]} of obs.Status snapshots
//	/healthz       liveness: always 200 while the process serves
//	/readyz        readiness: 503 until the WithReadiness probe passes;
//	               with WithReadinessDetail the 503 body names the failing
//	               probe ("not ready: <reason>")
//	/debug/pprof/  the standard runtime profiles
//	/              plain-text index of the endpoints above
//
// Unlike the expvar package it does not touch global state, so any number of
// registries can be served by one process.
func Handler(r *Registry, opts ...HandlerOption) http.Handler {
	var cfg handlerConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		q := req.URL.Query()
		want := q.Get("ring")
		if want == "" {
			want = q.Get("name")
		}
		limit := -1
		if v := q.Get("n"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			limit = n
		}
		out := make(map[string][]Event)
		if r != nil {
			r.mu.Lock()
			rings := make(map[string]*Trace, len(r.traces))
			for name, tr := range r.traces {
				rings[name] = tr
			}
			r.mu.Unlock()
			for name, tr := range rings {
				if want != "" && name != want {
					continue
				}
				events := tr.Events()
				if limit >= 0 && len(events) > limit {
					events = events[len(events)-limit:]
				}
				out[name] = events
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		var body struct {
			Total uint64         `json:"total"`
			Spans []tracing.Span `json:"spans"`
		}
		if cfg.spans != nil {
			body.Total = cfg.spans.Total()
			body.Spans = cfg.spans.Spans()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	})
	if len(cfg.status) > 0 {
		mux.HandleFunc("/debug/status", func(w http.ResponseWriter, _ *http.Request) {
			var body struct {
				Replicas []Status `json:"replicas"`
			}
			for _, p := range cfg.status {
				body.Replicas = append(body.Replicas, p.Status())
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(body)
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		switch {
		case cfg.readyDetail != nil:
			if ok, reason := cfg.readyDetail(); !ok {
				if reason == "" {
					reason = "probe failed"
				}
				http.Error(w, "not ready: "+reason, http.StatusServiceUnavailable)
				return
			}
		case cfg.ready != nil && !cfg.ready():
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		endpoints := []string{"/metrics", "/debug/vars", "/debug/trace"}
		if cfg.spans != nil {
			endpoints = append(endpoints, "/debug/spans")
		}
		if len(cfg.status) > 0 {
			endpoints = append(endpoints, "/debug/status")
		}
		endpoints = append(endpoints, "/healthz", "/readyz", "/debug/pprof/")
		for _, e := range endpoints {
			fmt.Fprintln(w, e)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
