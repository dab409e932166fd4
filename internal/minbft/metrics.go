package minbft

// Metrics: the replica's obs instrumentation. Everything here is optional —
// without WithMetrics every handle below stays nil and each recording site
// is a nil-check (see internal/obs), so the protocol pays nothing.

import (
	"time"

	"unidir/internal/obs"
)

// WithMetrics publishes replica metrics into reg, labelled by replica ID:
// batches/requests proposed and executed, batch sizes, commit latency,
// slots in flight, view changes, checkpoint/GC/state-transfer counts, and a
// per-replica trace ring of protocol events (view changes, checkpoints,
// state transfers, restarts).
func WithMetrics(reg *obs.Registry) Option {
	return func(r *Replica) { r.metricsReg = reg }
}

// metrics holds the replica's metric handles; the zero value (all nil) is a
// fully functional no-op.
type metrics struct {
	proposedBatches *obs.Counter
	executedBatches *obs.Counter
	executedReqs    *obs.Counter
	batchSize       *obs.Histogram
	commitLatency   *obs.Histogram
	viewChanges     *obs.Counter
	view            *obs.Gauge
	openSlots       *obs.Gauge // accepted-but-unexecuted slots
	inFlight        *obs.Gauge // leader's proposed-but-unexecuted batches
	ckptTaken       *obs.Counter
	ckptStable      *obs.Counter
	stateTransfers  *obs.Counter
	fetchesSent     *obs.Counter
	sheds           *obs.Counter   // requests refused by admission control
	pendingDepth    *obs.Gauge     // pending-request queue depth
	watchdogs       *obs.Gauge     // request watchdogs queued (tracks pendingDepth, see pruneWatchdogs)
	batchWait       *obs.Histogram // oldest-arrival-to-cut wait per batch
	pacedProposals  *obs.Counter   // proposal deferrals due to peer queue depth
	leaseGrants     *obs.Counter   // grants this replica issued as a grantor
	leaseRenewals   *obs.Counter   // lease rounds this replica started as leader
	leaseExpiries   *obs.Counter   // renewals that found the previous lease lapsed
	leasedReads     *obs.Counter   // reads answered from the lease
	fallbackReads   *obs.Counter   // reads answered as quorum-read fallback votes
	sigSigns        *obs.Counter   // USIG attestations made, one signature each (shared series, all replicas)
	trace           *obs.Trace
}

func (r *Replica) initMetrics() {
	reg := r.metricsReg
	if reg == nil {
		return
	}
	id := r.Self()
	r.mx = metrics{
		proposedBatches: reg.Counter(obs.Name("minbft_batches_proposed_total", "replica", id)),
		executedBatches: reg.Counter(obs.Name("minbft_batches_executed_total", "replica", id)),
		executedReqs:    reg.Counter(obs.Name("minbft_requests_executed_total", "replica", id)),
		batchSize:       reg.Histogram(obs.Name("minbft_batch_size", "replica", id), obs.SizeBuckets),
		commitLatency:   reg.Histogram(obs.Name("minbft_commit_latency_seconds", "replica", id), obs.LatencyBuckets),
		viewChanges:     reg.Counter(obs.Name("minbft_view_changes_total", "replica", id)),
		view:            reg.Gauge(obs.Name("minbft_view", "replica", id)),
		openSlots:       reg.Gauge(obs.Name("minbft_open_slots", "replica", id)),
		inFlight:        reg.Gauge(obs.Name("minbft_batches_in_flight", "replica", id)),
		ckptTaken:       reg.Counter(obs.Name("minbft_checkpoints_taken_total", "replica", id)),
		ckptStable:      reg.Counter(obs.Name("minbft_checkpoints_stable_total", "replica", id)),
		stateTransfers:  reg.Counter(obs.Name("minbft_state_transfers_total", "replica", id)),
		fetchesSent:     reg.Counter(obs.Name("minbft_fetches_sent_total", "replica", id)),
		sheds:           reg.Counter(obs.Name("minbft_requests_shed_total", "replica", id)),
		pendingDepth:    reg.Gauge(obs.Name("minbft_pending_requests", "replica", id)),
		watchdogs:       reg.Gauge(obs.Name("minbft_watchdog_entries", "replica", id)),
		batchWait:       reg.Histogram(obs.Name("minbft_batch_wait_seconds", "replica", id), obs.LatencyBuckets),
		pacedProposals:  reg.Counter(obs.Name("minbft_paced_proposals_total", "replica", id)),
		leaseGrants:     reg.Counter(obs.Name("minbft_lease_grants_total", "replica", id)),
		leaseRenewals:   reg.Counter(obs.Name("minbft_lease_renewals_total", "replica", id)),
		leaseExpiries:   reg.Counter(obs.Name("minbft_lease_expiries_total", "replica", id)),
		leasedReads:     reg.Counter(obs.Name("minbft_leased_reads_total", "replica", id)),
		fallbackReads:   reg.Counter(obs.Name("minbft_fallback_reads_total", "replica", id)),
		sigSigns:        reg.Counter("sig_signs_total"),
		trace:           reg.Trace(obs.Name("minbft", "replica", id), 256),
	}
}

// observeExecuted records one executed slot: throughput counters, commit
// latency from prepare acceptance to execution, and the drained-slot gauges.
func (r *Replica) observeExecuted(en *entry) {
	r.mx.executedBatches.Inc()
	r.mx.executedReqs.Add(uint64(len(en.reqs)))
	if !en.boundAt.IsZero() {
		r.mx.commitLatency.Observe(time.Since(en.boundAt).Seconds())
	}
	r.mx.openSlots.Set(int64(len(r.prepOrder) - r.execIdx))
	r.mx.inFlight.Set(int64(r.inFlight))
	r.mx.pendingDepth.Set(int64(len(r.pending)))
}
