package pbft

// Metrics: the replica's obs instrumentation, the pbft counterpart of
// minbft/metrics.go. Optional — without WithMetrics every handle stays nil
// and each recording site is a free nil-check.

import (
	"unidir/internal/obs"
)

// WithMetrics publishes replica metrics into reg, labelled by replica ID:
// batches/requests proposed and executed, batch sizes, open slots, and
// checkpoint/state-transfer counts.
func WithMetrics(reg *obs.Registry) Option {
	return func(r *Replica) { r.metricsReg = reg }
}

type metrics struct {
	proposedBatches *obs.Counter
	executedBatches *obs.Counter
	executedReqs    *obs.Counter
	batchSize       *obs.Histogram
	openSlots       *obs.Gauge
	ckptTaken       *obs.Counter
	ckptStable      *obs.Counter
	stateTransfers  *obs.Counter
	sheds           *obs.Counter   // requests refused by admission control
	pendingDepth    *obs.Gauge     // pending-request queue depth
	batchWait       *obs.Histogram // oldest-arrival-to-cut wait per batch
	pacedProposals  *obs.Counter   // proposal deferrals due to peer queue depth
	leaseGrants     *obs.Counter   // grants this replica issued as a backup
	leaseRenewals   *obs.Counter   // lease rounds this replica started as primary
	leaseExpiries   *obs.Counter   // renewals that found the previous lease lapsed
	leasedReads     *obs.Counter   // reads answered from the lease
	fallbackReads   *obs.Counter   // reads answered as quorum-read fallback votes
	sigSigns        *obs.Counter   // keyring signatures made (shared series, all replicas)
	sigVerifies     *obs.Counter   // keyring verifications run (shared series, all replicas)
	trace           *obs.Trace
}

func (r *Replica) initMetrics() {
	reg := r.metricsReg
	if reg == nil {
		return
	}
	id := r.Self()
	r.mx = metrics{
		proposedBatches: reg.Counter(obs.Name("pbft_batches_proposed_total", "replica", id)),
		executedBatches: reg.Counter(obs.Name("pbft_batches_executed_total", "replica", id)),
		executedReqs:    reg.Counter(obs.Name("pbft_requests_executed_total", "replica", id)),
		batchSize:       reg.Histogram(obs.Name("pbft_batch_size", "replica", id), obs.SizeBuckets),
		openSlots:       reg.Gauge(obs.Name("pbft_open_slots", "replica", id)),
		ckptTaken:       reg.Counter(obs.Name("pbft_checkpoints_taken_total", "replica", id)),
		ckptStable:      reg.Counter(obs.Name("pbft_checkpoints_stable_total", "replica", id)),
		stateTransfers:  reg.Counter(obs.Name("pbft_state_transfers_total", "replica", id)),
		sheds:           reg.Counter(obs.Name("pbft_requests_shed_total", "replica", id)),
		pendingDepth:    reg.Gauge(obs.Name("pbft_pending_requests", "replica", id)),
		batchWait:       reg.Histogram(obs.Name("pbft_batch_wait_seconds", "replica", id), obs.LatencyBuckets),
		pacedProposals:  reg.Counter(obs.Name("pbft_paced_proposals_total", "replica", id)),
		leaseGrants:     reg.Counter(obs.Name("pbft_lease_grants_total", "replica", id)),
		leaseRenewals:   reg.Counter(obs.Name("pbft_lease_renewals_total", "replica", id)),
		leaseExpiries:   reg.Counter(obs.Name("pbft_lease_expiries_total", "replica", id)),
		leasedReads:     reg.Counter(obs.Name("pbft_leased_reads_total", "replica", id)),
		fallbackReads:   reg.Counter(obs.Name("pbft_fallback_reads_total", "replica", id)),
		sigSigns:        reg.Counter("sig_signs_total"),
		sigVerifies:     reg.Counter("sig_verifications_total"),
		trace:           reg.Trace(obs.Name("pbft", "replica", id), 256),
	}
}
