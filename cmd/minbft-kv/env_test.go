package main

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"

	"unidir/internal/cluster"
	"unidir/internal/obs/knob"
	"unidir/internal/smr"
	"unidir/internal/types"
)

// The replica's UNIDIR_* knobs are read here and nowhere in the library:
// replicaSpec fills a setting from its environment variable when its flag was
// left at "default", and spells the result in cluster.Spec's convention
// (0 default, negative off). These tests moved here from internal/smr with
// the reads.

// flagDefaults is what flag.Parse leaves when no replica flag is given.
var flagDefaults = replicaOpts{admitPending: -1, admitRate: -1, admitBurst: -1}

func specFromEnv(t *testing.T, ro replicaOpts) cluster.Spec {
	t.Helper()
	m, err := types.NewMembership(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return replicaSpec(m, 42, ro)
}

func TestEnvBatchSize(t *testing.T) {
	for _, c := range []struct {
		env  string
		want int
	}{
		{"", 64}, {"on", 64}, {"off", 1}, {"0", 1}, {"1", 1}, {"16", 16}, {"-3", 64}, {"bogus", 64},
	} {
		t.Setenv("UNIDIR_BATCH", c.env)
		if got := specFromEnv(t, flagDefaults).Batch; got != c.want {
			t.Errorf("UNIDIR_BATCH=%q: Batch = %d, want %d", c.env, got, c.want)
		}
	}
}

// A malformed knob must fall back to the default AND leave a trace in the
// logs — silent fallback is exactly the bug the shared knob helper fixes.
func TestEnvWarnsOnMalformed(t *testing.T) {
	var buf bytes.Buffer
	restore := knob.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	defer restore()

	t.Setenv("UNIDIR_BATCH", "banana")
	if got := specFromEnv(t, flagDefaults).Batch; got != smr.DefaultBatchSize {
		t.Fatalf("malformed UNIDIR_BATCH: got %d, want default %d", got, smr.DefaultBatchSize)
	}
	log := buf.String()
	if !strings.Contains(log, "UNIDIR_BATCH") || !strings.Contains(log, "banana") {
		t.Fatalf("warning must name the knob and the bad value, got %q", log)
	}

	// A well-formed value must stay quiet.
	buf.Reset()
	t.Setenv("UNIDIR_BATCH", "16")
	if got := specFromEnv(t, flagDefaults).Batch; got != 16 {
		t.Fatalf("UNIDIR_BATCH=16: got %d", got)
	}
	if buf.Len() != 0 {
		t.Fatalf("valid value logged a warning: %q", buf.String())
	}
}

func TestEnvAdmission(t *testing.T) {
	t.Setenv("UNIDIR_ADMIT_PENDING", "")
	t.Setenv("UNIDIR_ADMIT_RATE", "")
	t.Setenv("UNIDIR_ADMIT_BURST", "")
	if cfg := *specFromEnv(t, flagDefaults).Admission; cfg != (smr.AdmissionConfig{MaxPending: 4096}) {
		t.Fatalf("defaults = %+v", cfg)
	}
	t.Setenv("UNIDIR_ADMIT_PENDING", "128")
	t.Setenv("UNIDIR_ADMIT_RATE", "5000")
	t.Setenv("UNIDIR_ADMIT_BURST", "64")
	if cfg := *specFromEnv(t, flagDefaults).Admission; cfg != (smr.AdmissionConfig{MaxPending: 128, Rate: 5000, Burst: 64}) {
		t.Fatalf("knobs = %+v", cfg)
	}
	// Flags override the environment field by field.
	ro := flagDefaults
	ro.admitRate = 0
	if cfg := *specFromEnv(t, ro).Admission; cfg != (smr.AdmissionConfig{MaxPending: 128, Rate: 0, Burst: 64}) {
		t.Fatalf("-admit-rate 0 over the knobs = %+v", cfg)
	}
	t.Setenv("UNIDIR_ADMIT_PENDING", "off")
	if cfg := *specFromEnv(t, flagDefaults).Admission; cfg.MaxPending != 0 {
		t.Fatalf("off pending = %+v", cfg)
	}
}

func TestEnvCheckpointInterval(t *testing.T) {
	for _, c := range []struct {
		env  string
		want int
	}{
		{"", 128}, {"on", 128}, {"off", -1}, {"0", -1}, {"64", 64}, {"-3", 128}, {"junk", 128},
	} {
		t.Setenv("UNIDIR_CKPT", c.env)
		if got := specFromEnv(t, flagDefaults).Ckpt; got != c.want {
			t.Fatalf("UNIDIR_CKPT=%q: Ckpt = %d, want %d", c.env, got, c.want)
		}
	}
}

func TestEnvLeaseAndPaceDepth(t *testing.T) {
	t.Setenv("UNIDIR_LEASE", "100ms")
	t.Setenv("UNIDIR_PACE_DEPTH", "32")
	spec := specFromEnv(t, flagDefaults)
	if spec.LeaseTerm != 100*time.Millisecond || spec.PaceDepth != 32 {
		t.Fatalf("from the environment: lease %v, pace depth %d", spec.LeaseTerm, spec.PaceDepth)
	}
	ro := flagDefaults
	ro.leaseTerm, ro.paceDepth = -1, 7
	spec = specFromEnv(t, ro)
	if spec.LeaseTerm != -1 || spec.PaceDepth != 7 {
		t.Fatalf("flags must win: lease %v, pace depth %d", spec.LeaseTerm, spec.PaceDepth)
	}
	t.Setenv("UNIDIR_LEASE", "off")
	t.Setenv("UNIDIR_PACE_DEPTH", "0")
	spec = specFromEnv(t, flagDefaults)
	if spec.LeaseTerm != -1 || spec.PaceDepth != -1 {
		t.Fatalf("off must reach the Spec as negative: lease %v, pace depth %d", spec.LeaseTerm, spec.PaceDepth)
	}
	if cfg := (smr.EngineConfig{LeaseTerm: spec.LeaseTerm, PaceDepth: spec.PaceDepth}).Resolved(); cfg.LeaseTerm != 0 || cfg.PaceDepth != 0 {
		t.Fatalf("and negative must mean off: %+v", cfg)
	}
}
