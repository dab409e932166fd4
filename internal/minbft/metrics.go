package minbft

// Metrics: the ordering core's obs instrumentation; the series MinBFT shares
// with PBFT (batches, requests, batch size and wait, commit latency, sheds,
// pending depth, pacing, lease rounds, reads, checkpoints and state
// transfers) are the engine's (smr/engine_obs.go). Everything here is
// optional — without EngineConfig.Metrics every handle below stays nil and
// each recording site is a nil-check (see internal/obs), so the protocol pays
// nothing.

import (
	"unidir/internal/obs"
)

// metrics holds the core's metric handles; the zero value (all nil) is a
// fully functional no-op.
type metrics struct {
	viewChanges *obs.Counter
	view        *obs.Gauge
	openSlots   *obs.Gauge // accepted-but-unexecuted slots
	fetchesSent *obs.Counter
	watchdogs   *obs.Gauge   // request watchdogs queued (tracks the pending depth, see pruneWatchdogs)
	leaseGrants *obs.Counter // grants this replica issued as a grantor
	sigSigns    *obs.Counter // USIG attestations made, one signature each (shared series, all replicas)
	trace       *obs.Trace
}

func (r *Replica) initMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	id := r.Self()
	r.mx = metrics{
		viewChanges: reg.Counter(obs.Name("minbft_view_changes_total", "replica", id)),
		view:        reg.Gauge(obs.Name("minbft_view", "replica", id)),
		openSlots:   reg.Gauge(obs.Name("minbft_open_slots", "replica", id)),
		fetchesSent: reg.Counter(obs.Name("minbft_fetches_sent_total", "replica", id)),
		watchdogs:   reg.Gauge(obs.Name("minbft_watchdog_entries", "replica", id)),
		leaseGrants: reg.Counter(obs.Name("minbft_lease_grants_total", "replica", id)),
		sigSigns:    reg.Counter("sig_signs_total"),
		trace:       reg.Trace(obs.Name("minbft", "replica", id), 256),
	}
}
