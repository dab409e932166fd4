package cluster

import (
	"testing"
	"time"

	"unidir/internal/obs"
	"unidir/internal/obs/tracing"
	"unidir/internal/smr"
)

// TestSpecEngineConfig pins the Spec conventions bench/config.go depends on
// and cannot re-check itself: pinned values arrive verbatim, 0 means the
// documented default, and a negative value turns the feature off.
func TestSpecEngineConfig(t *testing.T) {
	pinned := &smr.AdmissionConfig{MaxPending: 4096}
	unbounded := &smr.AdmissionConfig{}
	cases := []struct {
		name string
		spec Spec
		want smr.EngineConfig // the settings in effect (EngineConfig.Resolved)
	}{
		{
			name: "the benchmark's pins arrive verbatim",
			spec: Spec{Batch: 64, Ckpt: 128, BatchDeadline: 100 * time.Microsecond,
				Admission: pinned, PaceDepth: 4096, LeaseTerm: 250 * time.Millisecond},
			want: smr.EngineConfig{BatchSize: 64, CheckpointInterval: 128, BatchDeadline: 100 * time.Microsecond,
				Admission: pinned, PaceDepth: 4096, LeaseTerm: 250 * time.Millisecond},
		},
		{
			name: "zero means the documented default",
			spec: Spec{},
			want: smr.EngineConfig{BatchSize: smr.DefaultBatchSize, CheckpointInterval: smr.DefaultCheckpointInterval,
				BatchDeadline: smr.DefaultBatchDeadline, PaceDepth: smr.DefaultPaceDepth, LeaseTerm: smr.DefaultLeaseTerm},
		},
		{
			name: "PaceDepth -1 disables pacing and nothing else",
			spec: Spec{Batch: 64, Ckpt: 128, BatchDeadline: 100 * time.Microsecond,
				Admission: pinned, PaceDepth: -1, LeaseTerm: 250 * time.Millisecond},
			want: smr.EngineConfig{BatchSize: 64, CheckpointInterval: 128, BatchDeadline: 100 * time.Microsecond,
				Admission: pinned, PaceDepth: 0, LeaseTerm: 250 * time.Millisecond},
		},
		{
			name: "negative turns each feature off",
			spec: Spec{Batch: 1, Ckpt: -1, BatchDeadline: -1, Admission: unbounded, PaceDepth: -1, LeaseTerm: -1},
			want: smr.EngineConfig{BatchSize: 1, Admission: unbounded},
		},
		{
			name: "explicit values other than the defaults",
			spec: Spec{Batch: 8, Ckpt: 2, BatchDeadline: time.Millisecond, PaceDepth: 16, LeaseTerm: time.Second},
			want: smr.EngineConfig{BatchSize: 8, CheckpointInterval: 2, BatchDeadline: time.Millisecond,
				PaceDepth: 16, LeaseTerm: time.Second},
		},
	}
	for _, c := range cases {
		for _, p := range []Protocol{MinBFT, PBFT} {
			c.spec.Protocol = p
			got := c.spec.engineConfig(nil).Resolved()
			if c.want.Admission == nil {
				// Unset: the default bounds.
				if got.Admission == nil || *got.Admission != (smr.AdmissionConfig{MaxPending: smr.DefaultMaxPending}) {
					t.Errorf("%s (%v): admission %+v, want the default", c.name, p, got.Admission)
				}
				got.Admission = nil
			}
			if got != c.want {
				t.Errorf("%s (%v):\n got %+v\nwant %+v", c.name, p, got, c.want)
			}
		}
	}

	// Metrics and the tracer ride along; the MinBFT-only fields do not.
	reg, tracer := obs.NewRegistry(), tracing.NewTracer("r0", 1, tracing.NewSpanBuffer(1))
	got := Spec{Metrics: reg, Timeout: time.Second, DataDir: "/nowhere"}.engineConfig(tracer)
	if got.Metrics != reg || got.Tracer != tracer {
		t.Errorf("metrics/tracer not passed through: %+v", got)
	}
}
