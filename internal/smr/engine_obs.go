package smr

// The engine's instrumentation: the metric series both protocols publish,
// under the name prefix the core passes to NewEngine, and the shared half of
// a replica's obs.Status. Without a registry every handle stays nil and each
// recording site is a nil-check (see internal/obs).

import (
	"encoding/hex"

	"unidir/internal/obs"
)

type engineMetrics struct {
	proposedBatches *obs.Counter
	executedBatches *obs.Counter
	executedReqs    *obs.Counter
	batchSize       *obs.Histogram
	commitLatency   *obs.Histogram // batch bound to executed
	inFlight        *obs.Gauge     // leader's proposed-but-unexecuted batches
	sheds           *obs.Counter   // requests refused with an overload reply
	pendingDepth    *obs.Gauge     // pending-request queue depth
	batchWait       *obs.Histogram // oldest-arrival-to-cut wait per batch
	pacedProposals  *obs.Counter   // proposal deferrals due to peer queue depth
	leaseRenewals   *obs.Counter   // lease rounds this replica started as leader
	leaseExpiries   *obs.Counter   // renewals that found the previous lease lapsed
	leasedReads     *obs.Counter   // reads answered from the lease
	fallbackReads   *obs.Counter   // reads answered as quorum-read fallback votes
	ckptTaken       *obs.Counter
	ckptStable      *obs.Counter
	stateTransfers  *obs.Counter
	trace           *obs.Trace // the replica's protocol-event ring, shared with its core
}

func (e *Engine) initMetrics(name string, reg *obs.Registry) {
	if reg == nil {
		return
	}
	series := func(suffix string) string { return obs.Name(name+suffix, "replica", e.tr.Self()) }
	e.mx = engineMetrics{
		proposedBatches: reg.Counter(series("_batches_proposed_total")),
		executedBatches: reg.Counter(series("_batches_executed_total")),
		executedReqs:    reg.Counter(series("_requests_executed_total")),
		batchSize:       reg.Histogram(series("_batch_size"), obs.SizeBuckets),
		commitLatency:   reg.Histogram(series("_commit_latency_seconds"), obs.LatencyBuckets),
		inFlight:        reg.Gauge(series("_batches_in_flight")),
		sheds:           reg.Counter(series("_requests_shed_total")),
		pendingDepth:    reg.Gauge(series("_pending_requests")),
		batchWait:       reg.Histogram(series("_batch_wait_seconds"), obs.LatencyBuckets),
		pacedProposals:  reg.Counter(series("_paced_proposals_total")),
		leaseRenewals:   reg.Counter(series("_lease_renewals_total")),
		leaseExpiries:   reg.Counter(series("_lease_expiries_total")),
		leasedReads:     reg.Counter(series("_leased_reads_total")),
		fallbackReads:   reg.Counter(series("_fallback_reads_total")),
		ckptTaken:       reg.Counter(series("_checkpoints_taken_total")),
		ckptStable:      reg.Counter(series("_checkpoints_stable_total")),
		stateTransfers:  reg.Counter(series("_state_transfers_total")),
		trace:           reg.Trace(series(""), 256),
	}
}

// FillStatus fills in the engine's share of a status snapshot: the protocol,
// the replica ID, the execution position, the stable checkpoint, the
// process-lifetime progress counters, the queue gauges, and the lease if
// this replica holds one. The core sets View first (a lease's term is the
// view it belongs to) and the protocol's own fields around it.
func (e *Engine) FillStatus(st *obs.Status) {
	st.Protocol = e.name
	st.Replica = int(e.tr.Self())
	st.ExecCount = e.execPos
	if e.stable.Count > 0 {
		st.Checkpoint = &obs.CheckpointStatus{Count: e.stable.Count, Digest: hex.EncodeToString(e.stable.Digest[:])}
	}
	st.ProposedBatches = e.proposedCount
	st.ExecutedRequests = e.executedReqCount
	st.PendingRequests = len(e.pending)
	st.InFlightBatches = e.core.InFlight()
	st.QueuedReads = len(e.leaseReads)
	// Only the holder reports a lease: a grantor's promise is not mutual
	// exclusion, and the auditor counts holders per term.
	if now := e.clock.Now(); e.leaseValid(now) {
		st.Lease = &obs.LeaseStatus{
			Holder:      st.Replica,
			Term:        st.View,
			ExpiresInMS: e.leaseUntil.Sub(now).Milliseconds(),
		}
	}
}
