package smr

import (
	"time"

	"unidir/internal/obs"
	"unidir/internal/obs/tracing"
)

// The defaults of the shared replica settings. EngineConfig.Resolved is the
// one place they are applied; the library never reads the environment for
// them (cmd/minbft-kv's replicaSpec is the UNIDIR_* loader).
const (
	DefaultBatchSize          = 64
	DefaultBatchDeadline      = 100 * time.Microsecond
	DefaultPaceDepth          = 4096
	DefaultMaxPending         = 4096
	DefaultLeaseTerm          = 250 * time.Millisecond
	DefaultCheckpointInterval = 128
)

// MaxBatchSize bounds a request batch on both sides of the wire: proposers
// clamp BatchSize to it and both protocols refuse to decode a larger batch.
const MaxBatchSize = 1 << 14

// EngineConfig holds every replica setting MinBFT and PBFT share. All the
// numeric settings follow one convention, the one cluster.Spec spells:
// 0 takes the default, a negative value turns the feature off. The protocol
// packages' With… options are one-line setters into this struct.
type EngineConfig struct {
	// BatchSize caps how many pending requests the leader packs into one
	// proposal — one authentication and one quorum certificate per batch
	// (default 64, at most MaxBatchSize). 1, or a negative value, disables
	// batching: every request is proposed at once in its own slot.
	BatchSize int
	// BatchDeadline is the longest a partial batch is held open (default
	// 100µs). The hold adapts below it: see BatchTrigger. Negative cuts
	// every batch as soon as a proposal slot is free.
	BatchDeadline time.Duration
	// PaceDepth defers proposals while too few peers — fewer than the votes
	// a batch needs — have a transport send queue shorter than this many
	// frames (default 4096; negative disables). It only takes effect on
	// transports that expose queue depths (transport.QueueDepther: tcpnet
	// does, simnet does not).
	PaceDepth int
	// Admission bounds what a replica accepts before shedding with an
	// overload reply; nil is AdmissionConfig{MaxPending: 4096}. Every replica
	// of a cluster must run the same bounds, so that under uniform overload
	// f+1 of them shed the same request and the client sees a quorum.
	Admission *AdmissionConfig
	// LeaseTerm is the leader-lease term of the read fast path (default
	// 250ms; negative disables leases, so every read is answered as a
	// fallback vote). It is the grantor's promise horizon: the holder renews
	// at half the term and lets its lease lapse an eighth of a term early,
	// so clock rate skew below ~12% opens no stale window. All replicas must
	// agree on it. Without a Querier state machine it is off.
	LeaseTerm time.Duration
	// CheckpointInterval is how many executed batches separate checkpoints
	// (default 128; negative disables, and logs then grow without bound).
	// Without a Snapshotter state machine it is off.
	CheckpointInterval int

	// Metrics, when set, is where the replica publishes its series.
	Metrics *obs.Registry
	// Tracer, when set, records the replica's side of sampled requests.
	Tracer *tracing.Tracer
	// ExecutionLog, when set, captures every applied command, for
	// cross-replica consistency checks in tests.
	ExecutionLog *ExecutionLog
}

// Resolved returns the settings in effect: every default filled in, "off"
// spelled 0 (1 for BatchSize), BatchSize clamped to MaxBatchSize.
func (c EngineConfig) Resolved() EngineConfig {
	c.BatchSize = min(orDefault(c.BatchSize, DefaultBatchSize, 1), MaxBatchSize)
	c.BatchDeadline = orDefault(c.BatchDeadline, DefaultBatchDeadline, 0)
	c.PaceDepth = orDefault(c.PaceDepth, DefaultPaceDepth, 0)
	c.LeaseTerm = orDefault(c.LeaseTerm, DefaultLeaseTerm, 0)
	c.CheckpointInterval = orDefault(c.CheckpointInterval, DefaultCheckpointInterval, 0)
	if c.Admission == nil {
		c.Admission = &AdmissionConfig{MaxPending: DefaultMaxPending}
	}
	return c
}

// orDefault spells the convention once: 0 takes def, a negative value off.
func orDefault[T int | time.Duration](v, def, off T) T {
	switch {
	case v == 0:
		return def
	case v < 0:
		return off
	}
	return v
}
