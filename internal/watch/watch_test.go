package watch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"

	"unidir/internal/obs"
)

// feed drives a watcher from literal status slices, one slice per scrape.
type feed struct {
	scrapes [][]obs.Status
	idx     int
}

func (f *feed) source() Source {
	return Source{Name: "feed", Fetch: func(context.Context) ([]obs.Status, error) {
		if f.idx >= len(f.scrapes) {
			return nil, nil
		}
		sts := f.scrapes[f.idx]
		f.idx++
		return sts, nil
	}}
}

func newTestWatcher(t *testing.T, f *feed) (*Watcher, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	lg := slog.New(slog.NewTextHandler(io.Discard, nil))
	return New(Config{Sources: []Source{f.source()}, Logger: lg, Metrics: reg}), reg
}

func st(replica int, exec uint64) obs.Status {
	return obs.Status{
		Protocol: "minbft", Replica: replica,
		Ready: true, ExecCount: exec, ProposedBatches: exec + 10,
	}
}

func withCkpt(s obs.Status, count uint64, digest string) obs.Status {
	s.Checkpoint = &obs.CheckpointStatus{Count: count, Digest: digest}
	return s
}

func withUSIG(s obs.Status, v uint64) obs.Status {
	s.TrustedCounters = map[string]uint64{"usig": v}
	return s
}

func withLease(s obs.Status, holder int, term uint64) obs.Status {
	s.Lease = &obs.LeaseStatus{Holder: holder, Term: term, ExpiresInMS: 100}
	return s
}

func rules(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Rule
	}
	return out
}

func TestHealthyScrapeNoViolations(t *testing.T) {
	f := &feed{scrapes: [][]obs.Status{
		{
			withLease(withUSIG(withCkpt(st(0, 8), 8, "aa"), 20), 0, 0),
			withUSIG(withCkpt(st(1, 8), 8, "aa"), 19),
			withUSIG(withCkpt(st(2, 6), 8, "aa"), 18),
		},
		{
			withLease(withUSIG(withCkpt(st(0, 16), 16, "bb"), 40), 0, 0),
			withUSIG(withCkpt(st(1, 16), 16, "bb"), 41),
			withUSIG(withCkpt(st(2, 12), 8, "aa"), 30),
		},
	}}
	w, reg := newTestWatcher(t, f)
	for i := 0; i < 2; i++ {
		rep := w.Scrape(context.Background())
		if !rep.Healthy() {
			t.Fatalf("scrape %d unhealthy: %v %v", i, rep.Violations, rep.ScrapeErrors)
		}
	}
	if n := w.TotalViolations(); n != 0 {
		t.Fatalf("violations = %d, want 0", n)
	}
	if got := reg.Snapshot().Counter("watch_scrapes_total"); got != 2 {
		t.Fatalf("watch_scrapes_total = %d, want 2", got)
	}
}

func TestGroupHealthAggregation(t *testing.T) {
	f := &feed{scrapes: [][]obs.Status{
		{st(0, 10), st(1, 4)},
		{st(0, 20), st(1, 18)},
	}}
	w, _ := newTestWatcher(t, f)
	w.Scrape(context.Background())
	g := w.Scrape(context.Background()).Group
	if g.Replicas != 2 || g.LagSpread != 2 || g.MaxExec != 20 || g.MinExec != 18 {
		t.Fatalf("health = %+v", g)
	}
	if g.ExecDelta != 10 {
		t.Fatalf("exec delta = %d, want 10", g.ExecDelta)
	}
}

func TestViewFlapCounting(t *testing.T) {
	a := st(0, 1)
	b := st(0, 2)
	b.View = 3
	f := &feed{scrapes: [][]obs.Status{{a}, {b}}}
	w, _ := newTestWatcher(t, f)
	w.Scrape(context.Background())
	rep := w.Scrape(context.Background())
	if got := rep.Group.ViewFlaps; got != 3 {
		t.Fatalf("view flaps = %d, want 3", got)
	}
}

func TestCheckpointDivergenceCaught(t *testing.T) {
	f := &feed{scrapes: [][]obs.Status{{
		withCkpt(st(0, 8), 8, "aaaa"),
		withCkpt(st(1, 8), 8, "aaaa"),
		withCkpt(st(2, 8), 8, "ffff"), // the liar
	}}}
	w, reg := newTestWatcher(t, f)
	rep := w.Scrape(context.Background())
	if len(rep.Violations) != 1 || rep.Violations[0].Rule != RuleCheckpointDivergence {
		t.Fatalf("violations = %v", rep.Violations)
	}
	ev := ckptEvidence(t, rep.Violations[0])
	if ev.Count != 8 || ev.Agreed != "aaaa" || ev.F != 1 {
		t.Fatalf("evidence = %+v", ev)
	}
	if len(ev.Diverging) != 1 || ev.Diverging[0] != 2 {
		t.Fatalf("diverging = %v, want [2]", ev.Diverging)
	}
	if got := reg.Snapshot().CounterSum("watch_violations_total"); got != 1 {
		t.Fatalf("watch_violations_total = %d, want 1", got)
	}
}

type ckptEv struct {
	Count     uint64 `json:"checkpoint_count"`
	F         int    `json:"f"`
	Agreed    string `json:"agreed_digest"`
	Diverging []int  `json:"diverging"`
}

func ckptEvidence(t *testing.T, v Violation) ckptEv {
	t.Helper()
	var ev ckptEv
	if err := json.Unmarshal(v.Evidence, &ev); err != nil {
		t.Fatalf("evidence: %v", err)
	}
	return ev
}

// Blame needs f+1 agreeing claims; the group's f follows its size and
// protocol. The size is every replica the auditor has seen, not just this
// scrape's: a member whose fetch failed must not lower f.
func TestCheckpointDivergenceBlameNeedsFPlusOne(t *testing.T) {
	lagging := st(2, 6) // no claim at 8 yet
	pbft := func(s obs.Status) obs.Status { s.Protocol = "pbft"; return s }
	for name, c := range map[string]struct {
		scrapes [][]obs.Status // the last one is audited
		f       int
		blame   []int
	}{
		"minbft, 1 vs 1 of 3": {
			[][]obs.Status{{withCkpt(st(0, 8), 8, "ffff"), withCkpt(st(1, 8), 8, "aaaa"), lagging}},
			1, []int{},
		},
		"minbft, 2 vs 1 of 5": {
			[][]obs.Status{{withCkpt(st(0, 8), 8, "ffff"), withCkpt(st(1, 8), 8, "aaaa"),
				withCkpt(st(2, 8), 8, "aaaa"), st(3, 6), st(4, 6)}},
			2, []int{},
		},
		"minbft, 2 vs 1 of 5, one member unscraped": {
			[][]obs.Status{
				{st(0, 6), st(1, 6), st(2, 6), st(3, 6), st(4, 6)},
				{withCkpt(st(0, 8), 8, "ffff"), withCkpt(st(1, 8), 8, "aaaa"),
					withCkpt(st(2, 8), 8, "aaaa"), st(3, 6)},
			},
			2, []int{},
		},
		"pbft, 2 vs 1 of 4": {
			[][]obs.Status{{pbft(withCkpt(st(0, 8), 8, "ffff")), pbft(withCkpt(st(1, 8), 8, "aaaa")),
				pbft(withCkpt(st(2, 8), 8, "aaaa")), pbft(st(3, 6))}},
			1, []int{0},
		},
	} {
		w, _ := newTestWatcher(t, &feed{scrapes: c.scrapes})
		var rep *Report
		for range c.scrapes {
			rep = w.Scrape(context.Background())
		}
		if len(rep.Violations) != 1 {
			t.Fatalf("%s: violations = %v", name, rep.Violations)
		}
		ev := ckptEvidence(t, rep.Violations[0])
		if ev.F != c.f || fmt.Sprint(ev.Diverging) != fmt.Sprint(c.blame) {
			t.Fatalf("%s: f = %d, blame %v; want %d, %v", name, ev.F, ev.Diverging, c.f, c.blame)
		}
		if undetermined := strings.Contains(rep.Violations[0].Detail, "blame undetermined"); undetermined != (len(c.blame) == 0) {
			t.Fatalf("%s: detail %q", name, rep.Violations[0].Detail)
		}
	}
}

func TestTrustedCounterRegressionCaught(t *testing.T) {
	f := &feed{scrapes: [][]obs.Status{
		{withUSIG(st(1, 5), 50)},
		{withUSIG(st(1, 6), 40)}, // regressed
	}}
	w, _ := newTestWatcher(t, f)
	w.Scrape(context.Background())
	rep := w.Scrape(context.Background())
	if got := rules(rep.Violations); len(got) != 1 || got[0] != RuleCounterRegression {
		t.Fatalf("violations = %v", got)
	}
	if !strings.Contains(rep.Violations[0].Detail, "replica 1") {
		t.Fatalf("detail does not name replica: %q", rep.Violations[0].Detail)
	}
}

func TestExecRegressionCaught(t *testing.T) {
	f := &feed{scrapes: [][]obs.Status{
		{st(0, 9)},
		{st(0, 3)},
	}}
	w, _ := newTestWatcher(t, f)
	w.Scrape(context.Background())
	rep := w.Scrape(context.Background())
	if got := rules(rep.Violations); len(got) != 1 || got[0] != RuleExecRegression {
		t.Fatalf("violations = %v", got)
	}
}

func TestStaleStatusesSkipMonotoneRules(t *testing.T) {
	stale := obs.Status{Protocol: "minbft", Replica: 0, Stale: true}
	f := &feed{scrapes: [][]obs.Status{
		{withUSIG(st(0, 9), 30)},
		{stale}, // zeros everywhere, but marked degraded
		{withUSIG(st(0, 10), 31)},
	}}
	w, _ := newTestWatcher(t, f)
	for i := 0; i < 3; i++ {
		if rep := w.Scrape(context.Background()); !rep.Healthy() {
			t.Fatalf("scrape %d flagged a stale snapshot: %v", i, rep.Violations)
		}
	}
}

func TestLeaseConflictCaught(t *testing.T) {
	f := &feed{scrapes: [][]obs.Status{
		{withLease(st(0, 1), 0, 4)},
		{withLease(st(2, 1), 2, 4)}, // same term, different holder
	}}
	w, _ := newTestWatcher(t, f)
	w.Scrape(context.Background())
	rep := w.Scrape(context.Background())
	if got := rules(rep.Violations); len(got) != 1 || got[0] != RuleLeaseConflict {
		t.Fatalf("violations = %v", got)
	}
	// A later term with a different holder is fine (views change).
	f.scrapes = append(f.scrapes, []obs.Status{withLease(st(2, 1), 2, 5)})
	if rep := w.Scrape(context.Background()); len(rep.Violations) != 0 {
		t.Fatalf("new-term lease flagged: %v", rep.Violations)
	}
}

func TestExecExceedsProposedCaught(t *testing.T) {
	lying := st(0, 100)
	lying.ProposedBatches = 2
	honest := st(1, 100)
	honest.ProposedBatches = 3
	f := &feed{scrapes: [][]obs.Status{
		{lying, honest},
		{lying, honest},
	}}
	w, _ := newTestWatcher(t, f)
	rep := w.Scrape(context.Background())
	if len(rep.Violations) != 0 {
		t.Fatalf("first scrape flagged (rule must defer one scrape): %v", rep.Violations)
	}
	rep = w.Scrape(context.Background())
	if got := rules(rep.Violations); len(got) != 1 || got[0] != RuleExecExceedsProposed {
		t.Fatalf("violations = %v", got)
	}
}

// A scrape that reached no replica says nothing about proposals: it must
// not read as "executed > 0 proposed".
func TestEmptyScrapeFlagsNothing(t *testing.T) {
	f := &feed{scrapes: [][]obs.Status{{st(0, 5)}, {}}}
	w, _ := newTestWatcher(t, f)
	for i := 0; i < 2; i++ {
		if rep := w.Scrape(context.Background()); !rep.Healthy() {
			t.Fatalf("scrape %d: %v", i, rep.Violations)
		}
	}
}

func TestScrapeErrorsDoNotBlindAuditor(t *testing.T) {
	bad := Source{Name: "down", Fetch: func(context.Context) ([]obs.Status, error) {
		return nil, context.DeadlineExceeded
	}}
	f := &feed{scrapes: [][]obs.Status{{st(0, 1)}}}
	reg := obs.NewRegistry()
	w := New(Config{
		Sources: []Source{bad, f.source()},
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		Metrics: reg,
	})
	rep := w.Scrape(context.Background())
	if len(rep.ScrapeErrors) != 1 || len(rep.Replicas) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if got := reg.Snapshot().Counter("watch_scrape_errors_total"); got != 1 {
		t.Fatalf("watch_scrape_errors_total = %d, want 1", got)
	}
}

func TestReportWrite(t *testing.T) {
	f := &feed{scrapes: [][]obs.Status{{
		withCkpt(st(0, 8), 8, "aa"),
		withCkpt(st(1, 8), 8, "ff"),
	}}}
	w, _ := newTestWatcher(t, f)
	rep := w.Scrape(context.Background())
	var sb strings.Builder
	rep.Write(&sb)
	out := sb.String()
	if !strings.Contains(out, "VIOLATION [checkpoint-divergence]") ||
		!strings.Contains(out, "evidence:") {
		t.Fatalf("report rendering missing violation: %q", out)
	}

	healthy := &Report{Group: GroupHealth{Replicas: 3}}
	sb.Reset()
	healthy.Write(&sb)
	if !strings.Contains(sb.String(), "group: 3 replicas") || !strings.Contains(sb.String(), "healthy: no violations") {
		t.Fatalf("healthy rendering: %q", sb.String())
	}
}
