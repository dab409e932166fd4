// Package watch is the cluster introspection plane: it polls per-replica
// status sources (in-process StatusProviders or remote /debug/status
// endpoints) of one consensus group, aggregates them into the group's
// health, and runs an online safety auditor over exactly the invariants the
// trusted hardware is supposed to enforce — equal checkpoint digests at
// equal counts, monotone trusted counters, executed ≤ proposed, at most one
// lease holder per term.
//
// The auditor is the observability analogue of the paper's thesis: trusted
// hardware shrinks quorums because equivocation becomes detectable
// evidence. A diverged digest or a regressed USIG counter IS that evidence;
// the watcher's job is to surface it as a structured violation instead of
// waiting for clients to misbehave. See DESIGN.md §10 for what the auditor
// can and cannot prove under f Byzantine replicas.
package watch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"unidir/internal/obs"
)

// Source is one scrapeable status origin producing the statuses of one or
// more replicas. Name labels scrape errors; Fetch must be safe to call
// repeatedly and from one goroutine at a time.
type Source struct {
	Name  string
	Fetch func(ctx context.Context) ([]obs.Status, error)
}

// Local wraps in-process replicas as a Source named "local/<name>".
func Local(name string, providers ...obs.StatusProvider) Source {
	return Source{
		Name: "local/" + name,
		Fetch: func(context.Context) ([]obs.Status, error) {
			out := make([]obs.Status, 0, len(providers))
			for _, p := range providers {
				out = append(out, p.Status())
			}
			return out, nil
		},
	}
}

// HTTP scrapes a replica process's /debug/status endpoint. url may be a
// base address ("http://host:port") or the full endpoint path.
func HTTP(url string) Source {
	if !strings.Contains(url, "/debug/status") {
		url = strings.TrimRight(url, "/") + "/debug/status"
	}
	client := &http.Client{Timeout: 5 * time.Second}
	return Source{
		Name: url,
		Fetch: func(ctx context.Context) ([]obs.Status, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				return nil, err
			}
			resp, err := client.Do(req)
			if err != nil {
				return nil, err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
			}
			var body struct {
				Replicas []obs.Status `json:"replicas"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				return nil, fmt.Errorf("%s: %w", url, err)
			}
			return body.Replicas, nil
		},
	}
}

// Config configures a Watcher.
type Config struct {
	Sources []Source
	// Logger receives one Error record per violation and one Warn per
	// scrape error. Nil: slog.Default().
	Logger *slog.Logger
	// Metrics receives the watcher's own series (watch_scrapes_total,
	// watch_scrape_errors_total, watch_violations_total{rule=...}).
	// Nil: no self-metrics.
	Metrics *obs.Registry
}

// GroupHealth is the aggregated view of the consensus group at a scrape.
type GroupHealth struct {
	Replicas int `json:"replicas"`
	Stale    int `json:"stale,omitempty"` // degraded snapshots this scrape

	// Commit-lag spread: the gap between the most and least advanced
	// replica's execution watermark (stale samples excluded).
	MaxExec   uint64 `json:"max_exec"`
	MinExec   uint64 `json:"min_exec"`
	LagSpread uint64 `json:"lag_spread"`

	View      uint64 `json:"view"`       // highest view reported in the group
	ViewFlaps uint64 `json:"view_flaps"` // view advances observed since the watcher started

	NotReady     []int `json:"not_ready,omitempty"` // replica IDs failing their readiness probe
	LeaseHolders []int `json:"lease_holders,omitempty"`

	// OldestPendingMs is the longest any replica of the group has held a
	// request pending (obs.Status.OldestPendingMs): a stalled primary shows
	// here before the view-change timeout names it.
	OldestPendingMs int64 `json:"oldest_pending_ms,omitempty"`

	// ExecDelta is the group execution-watermark advance since the previous
	// scrape (0 on the first).
	ExecDelta uint64 `json:"exec_delta"`
}

// Violation is one audited-invariant breach. Evidence is a JSON blob naming
// the conflicting artifacts (replica IDs, digests, counter values) so a
// human — or a CI gate — can attribute blame without re-scraping.
type Violation struct {
	Rule     string          `json:"rule"`
	Detail   string          `json:"detail"`
	Evidence json.RawMessage `json:"evidence,omitempty"`
}

// Report is the outcome of one scrape.
type Report struct {
	Replicas     []obs.Status `json:"replicas"`
	Group        GroupHealth  `json:"group"`
	Violations   []Violation  `json:"violations,omitempty"` // new this scrape
	ScrapeErrors []string     `json:"scrape_errors,omitempty"`
}

// Healthy reports whether the scrape saw no violations and no scrape
// errors.
func (r *Report) Healthy() bool {
	return len(r.Violations) == 0 && len(r.ScrapeErrors) == 0
}

// Write renders the report for humans (the doctor's one-shot output).
func (r *Report) Write(w io.Writer) {
	g := r.Group
	fmt.Fprintf(w, "group: %d replicas, view %d (%d flaps), exec %d..%d (spread %d, +%d)",
		g.Replicas, g.View, g.ViewFlaps, g.MinExec, g.MaxExec, g.LagSpread, g.ExecDelta)
	if g.Stale > 0 {
		fmt.Fprintf(w, ", %d stale", g.Stale)
	}
	if len(g.NotReady) > 0 {
		fmt.Fprintf(w, ", not ready: %v", g.NotReady)
	}
	if g.OldestPendingMs > 0 {
		fmt.Fprintf(w, ", oldest pending request %d ms", g.OldestPendingMs)
	}
	if len(g.LeaseHolders) > 0 {
		fmt.Fprintf(w, ", lease held by %v", g.LeaseHolders)
	}
	fmt.Fprintln(w)
	for _, e := range r.ScrapeErrors {
		fmt.Fprintf(w, "scrape error: %s\n", e)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "VIOLATION [%s]: %s\n", v.Rule, v.Detail)
		if len(v.Evidence) > 0 {
			fmt.Fprintf(w, "  evidence: %s\n", v.Evidence)
		}
	}
	if len(r.Violations) == 0 && len(r.ScrapeErrors) == 0 {
		fmt.Fprintln(w, "healthy: no violations")
	}
}

// Watcher polls the configured sources and audits each scrape against the
// state accumulated from all previous ones. One Watcher owns its audit
// state; Scrape and Run must not run concurrently with each other, but
// Violations and TotalViolations are safe from any goroutine.
type Watcher struct {
	sources []Source
	lg      *slog.Logger

	scrapes    *obs.Counter
	scrapeErrs *obs.Counter
	metrics    *obs.Registry

	audit *auditor
}

// New builds a Watcher; see Config.
func New(cfg Config) *Watcher {
	lg := cfg.Logger
	if lg == nil {
		lg = slog.Default()
	}
	return &Watcher{
		sources:    cfg.Sources,
		lg:         lg,
		scrapes:    cfg.Metrics.Counter("watch_scrapes_total"),
		scrapeErrs: cfg.Metrics.Counter("watch_scrape_errors_total"),
		metrics:    cfg.Metrics,
		audit:      newAuditor(),
	}
}

// Scrape fetches every source once, updates the audit state, and returns
// the resulting report. Source errors are reported in the Report (and
// counted), not returned: a dead replica must not blind the auditor to the
// live ones.
func (w *Watcher) Scrape(ctx context.Context) *Report {
	w.scrapes.Inc()
	rep := &Report{}
	for _, src := range w.sources {
		sts, err := src.Fetch(ctx)
		if err != nil {
			w.scrapeErrs.Inc()
			w.lg.Warn("status scrape failed", "source", src.Name, "err", err)
			rep.ScrapeErrors = append(rep.ScrapeErrors, fmt.Sprintf("%s: %v", src.Name, err))
			continue
		}
		rep.Replicas = append(rep.Replicas, sts...)
	}
	rep.Group, rep.Violations = w.audit.observe(rep.Replicas)
	for _, v := range rep.Violations {
		w.metrics.Counter(obs.Name("watch_violations_total", "rule", v.Rule)).Inc()
		w.lg.Error("safety violation detected",
			"rule", v.Rule, "detail", v.Detail,
			"evidence", string(v.Evidence))
	}
	return rep
}

// Run scrapes at the given interval until ctx is cancelled. The first
// scrape happens immediately (audit rules that compare across scrapes need
// a baseline as early as possible).
func (w *Watcher) Run(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	w.Scrape(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.Scrape(ctx)
		}
	}
}

// Violations returns every violation recorded since the watcher started.
func (w *Watcher) Violations() []Violation { return w.audit.violations() }

// TotalViolations is len(Violations) without the copy.
func (w *Watcher) TotalViolations() int { return w.audit.count() }
