package obs

// Per-replica status reporting: the introspection-plane contract between
// replicas (minbft, pbft), the debug HTTP surface (/debug/status), and the
// cluster-level aggregator/auditor (internal/watch).
//
// A Status is one replica's self-reported view of its own protocol state,
// built on the replica's run goroutine so every field is one consistent cut
// (no torn reads across view changes or checkpoint advances). The fields
// are exactly the claims the safety auditor cross-checks between replicas:
// the stable checkpoint digest (equivocation evidence when two replicas
// disagree at one count), the trusted-counter high-water marks (regression
// evidence), the execution watermark, and the active lease.
//
// Status lives in obs — not in a protocol package — so the aggregator, the
// Byzantine test actors (internal/byz), and the HTTP layer can share the
// type without importing consensus code.

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// CheckpointStatus is a replica's latest stable checkpoint claim.
type CheckpointStatus struct {
	// Count is the checkpoint position: executed fresh batches for MinBFT,
	// the stable sequence number for PBFT.
	Count uint64 `json:"count"`
	// Digest is the hex state digest the replica's certificate covers. Two
	// replicas of one group reporting different digests at the same count
	// is safety-violation evidence.
	Digest string `json:"digest"`
}

// LeaseStatus is an active leader lease as reported by its holder. Only the
// holder reports one; grantors report nothing (their promise is not a
// lease). Two holders for one (shard, term) is mutual-exclusion evidence.
type LeaseStatus struct {
	Holder      int    `json:"holder"`
	Term        uint64 `json:"term"` // the view the lease belongs to
	ExpiresInMS int64  `json:"expires_in_ms"`
}

// Status is one replica's introspection snapshot (see /debug/status and
// internal/watch).
type Status struct {
	Protocol string `json:"protocol"`        // "minbft" or "pbft"
	Replica  int    `json:"replica"`         // process ID within the group
	Shard    string `json:"shard,omitempty"` // stamped by the serving layer, not the replica

	View        uint64 `json:"view"`
	Ready       bool   `json:"ready"`
	ReadyReason string `json:"ready_reason,omitempty"` // which probe fails while !Ready
	// Stale marks a degraded snapshot assembled off the run goroutine (the
	// event loop did not answer in time, typically because the replica is
	// wedged or closing). Counters in a stale status may read zero; the
	// auditor's monotonicity rules skip stale samples.
	Stale bool `json:"stale,omitempty"`

	// Progress watermarks. ExecCount counts executed batches in total order
	// (MinBFT: fresh batches, the checkpoint count; PBFT: contiguous
	// executed sequence numbers). ProposedBatches and ExecutedRequests are
	// process-lifetime counters (they reset on restart, unlike the trusted
	// counters below).
	ExecCount        uint64 `json:"exec_count"`
	ProposedBatches  uint64 `json:"proposed_batches"`
	ExecutedRequests uint64 `json:"executed_requests"`

	// Admission / queue gauges.
	PendingRequests int `json:"pending_requests"`
	OpenSlots       int `json:"open_slots"`
	InFlightBatches int `json:"in_flight_batches"`
	QueuedReads     int `json:"queued_reads"`
	// OldestPendingMs is how long the oldest pending request has waited on
	// this view's primary, and WatchdogEntries how many request watchdogs
	// the replica holds for it (MinBFT: the head and length of the watchdog
	// lane, so WatchdogEntries tracks PendingRequests; PBFT arms no request
	// watchdogs and omits both). A replica demands a view change when the
	// age reaches its request timeout.
	OldestPendingMs int64 `json:"oldest_pending_ms,omitempty"`
	WatchdogEntries int   `json:"watchdog_entries,omitempty"`

	Checkpoint *CheckpointStatus `json:"checkpoint,omitempty"`

	// TrustedCounters maps counter names to hardware-backed high-water
	// marks (MinBFT: "usig", the TrInc attestation sequence). Empty for
	// protocols without trusted hardware — which is exactly the
	// hybrid-trust distinction: the auditor knows which replicas' claims
	// are attestation-backed and which rest on signatures alone.
	TrustedCounters map[string]uint64 `json:"trusted_counters,omitempty"`

	Lease *LeaseStatus `json:"lease,omitempty"`
}

// StatusProvider is implemented by replicas that can report a Status
// (minbft.Replica, pbft.Replica). Status must be safe to call from any
// goroutine and must return even when the replica is wedged or closed
// (degraded, Stale snapshots satisfy that).
type StatusProvider interface {
	Status() Status
}

// SetBuildInfo publishes the conventional `unidir_build_info` gauge: value
// 1, with the module version, the Go runtime version, and any extra label
// pairs (e.g. "protocol", "minbft"; "binary", "unidir-doctor"). Dashboards
// join it against other series to attribute metrics to a build. Nil
// registry is a no-op.
func SetBuildInfo(reg *Registry, pairs ...any) {
	if reg == nil {
		return
	}
	labels := append([]any{"version", buildVersion(), "go", runtime.Version()}, pairs...)
	reg.Gauge(Name("unidir_build_info", labels...)).Set(1)
}

// BuildInfoLine is SetBuildInfo for binaries without a metrics surface: a
// one-line human-readable rendering of the same information, printed at
// startup so every binary's output attributes itself to a build.
func BuildInfoLine(binary string) string {
	return fmt.Sprintf("%s version=%s go=%s", binary, buildVersion(), runtime.Version())
}

func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "dev"
}
