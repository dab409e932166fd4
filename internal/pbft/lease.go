package pbft

// The lease protocol for the linearizable read fast path (DESIGN.md §8).
// The read server and the grant tally live in the engine
// (smr/engine_read.go).
//
// The primary periodically broadcasts a signed LEASE-REQUEST carrying a
// round counter; each backup answers with a signed LEASE-GRANT for that
// round, sent point-to-point (no trusted counters here, so grants need not
// be broadcast to keep any cursor contiguous). The lease takes 2f+1 grants,
// the primary's own included.
//
// With the view fixed at 0 there is no competing primary to fence off; the
// grant quorum documents that a read-serving primary is one 2f+1 quorums
// still talk to, and the freshness rule does the linearizability work: a
// read is served only once execution has passed every sequence number the
// primary had assigned when the read arrived, which covers every write
// acknowledged before the read was issued (an acked write has 2f+1 matching
// replies, so it committed, so this unique proposer assigned it a slot).
// Reads arriving when no lease is held are answered as fallback votes and
// the client gathers 2f+1 matching (executed seq, result) replies instead.

import "unidir/internal/types"

// renewLease starts a new lease round and arms the next renewal at half the
// term. Bails — without re-arming — when this replica is not the primary or
// leases are disabled.
func (r *Replica) renewLease() {
	if r.leaseTerm <= 0 || r.m.Leader(r.view) != r.Self() {
		return
	}
	now := r.loop.Now()
	r.leaseRound++
	r.broadcast(kindLeaseRequest, r.leaseRound, nil)
	r.eng.LeaseRoundStart(now)
	if !r.renewArmed {
		r.renewArmed = true
		r.loop.After(r.leaseTerm/2, timerEvent{})
	}
}

// handleLeaseRequest answers the primary's solicitation for round n with a
// signed grant back to it.
func (r *Replica) handleLeaseRequest(from types.ProcessID, n types.SeqNum) {
	if r.leaseTerm <= 0 || r.m.Leader(r.view) != from {
		return
	}
	r.sendSigned(from, kindLeaseGrant, n, nil)
	r.mx.leaseGrants.Inc()
}

// handleLeaseGrant tallies a backup's answer to our outstanding round.
func (r *Replica) handleLeaseGrant(from types.ProcessID, n types.SeqNum) {
	if r.leaseTerm <= 0 || r.m.Leader(r.view) != r.Self() || n != r.leaseRound {
		return
	}
	r.eng.LeaseGrant(from)
}
