package pbft

// Metrics: the ordering core's obs instrumentation; the series PBFT shares
// with MinBFT are the engine's (smr/engine_obs.go). Optional — without
// EngineConfig.Metrics every handle stays nil and each recording site is a
// free nil-check.

import (
	"unidir/internal/obs"
)

type metrics struct {
	openSlots   *obs.Gauge
	leaseGrants *obs.Counter // grants this replica issued as a backup
	sigSigns    *obs.Counter // keyring signatures made (shared series, all replicas)
	sigVerifies *obs.Counter // keyring verifications run (shared series, all replicas)
}

func (r *Replica) initMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	id := r.Self()
	r.mx = metrics{
		openSlots:   reg.Gauge(obs.Name("pbft_open_slots", "replica", id)),
		leaseGrants: reg.Counter(obs.Name("pbft_lease_grants_total", "replica", id)),
		sigSigns:    reg.Counter("sig_signs_total"),
		sigVerifies: reg.Counter("sig_verifications_total"),
	}
}
