package minbft

// The lease protocol for the linearizable read fast path (DESIGN.md §8).
// The read server and the grant tally live in the engine
// (smr/engine_read.go); this file is what makes a MinBFT grant mean
// something.
//
// The primary periodically broadcasts an attested LEASE-REQUEST; each backup
// answers with an attested LEASE-GRANT echoing the request's UI counter
// value — the grant is thereby bound to the grantor's trusted counter and
// totally ordered against every other message the grantor ever attests, in
// particular any later VIEW-CHANGE. The lease takes grants from all n
// replicas (the primary's own included): the f+1 that quorum intersection
// would ask for is safe under crash and timing faults but not against a
// Byzantine grantor — see DESIGN.md §8.
//
// Exclusivity: a grantor promises not to send a VIEW-CHANGE until its
// promise horizon (receive time + term, which is at or after the primary's
// send time + term > the primary's expiry) has passed. startViewChange
// defers behind that promise; see the comment there for why deferring only
// the VIEW-CHANGE send suffices.

import (
	"time"

	"unidir/internal/types"
)

// renewLease starts a new lease round: attest and broadcast a
// LEASE-REQUEST, restart the engine's grant tally, and arm the next
// renewal at half the term so a healthy leader's lease never lapses.
// Called at startup (view-0 leader), from installView (a new leader), from
// the 'l' renewal timer, and when a deferred view change is dropped. Bails —
// without re-arming — when this replica is not the leader, a view change is
// in flight or deferred, or leases are disabled (installView or grantExpired
// restarts renewal). A leader that has itself deferred a view change must
// not renew: its self-grant would extend the very promise it is waiting out,
// and the view change would be deferred forever. A failed attest/send, by
// contrast, must NOT stop the timer: the 'l' handler just cleared
// renewArmed, so the timer is re-armed before anything can fail, or one
// transient failure would silently end renewal until the next view change
// and strand every read on the fallback path.
func (r *Replica) renewLease() {
	if r.leaseTerm <= 0 || r.inVC || r.deferredVC > r.view || r.m.Leader(r.view) != r.Self() {
		return
	}
	if !r.renewArmed {
		r.renewArmed = true
		r.loop.After(r.leaseTerm/2, timerEvent{kind: 'l'})
	}
	now := r.loop.Now()
	ui, err := r.attestAndSend(kindLeaseRequest, encodeLeaseRequestBody(r.view))
	if err != nil {
		return
	}
	r.leaseRound = ui.Seq
	// The self-grant, which opens the tally, carries the same promise any
	// grantor makes.
	r.promiseGrant(now)
	r.eng.LeaseRoundStart(now)
}

// promiseGrant extends the grantor promise horizon: no VIEW-CHANGE from us
// until now + term. Receive time is at or after the primary's send time, so
// under bounded clock rate skew the promise outlasts the primary's lease
// (which additionally expires term/8 early).
func (r *Replica) promiseGrant(now time.Time) {
	if until := now.Add(r.leaseTerm); until.After(r.grantUntil) {
		r.grantUntil = until
	}
}

// revokeLease drops any lease this replica holds; the engine answers the
// queued leased reads as fallback votes. The grantor promise is deliberately
// left alone: it protects the old primary's reads and must run out on its
// own.
func (r *Replica) revokeLease() {
	r.leaseRound = 0
	r.eng.LeaseRevoke()
}

// handleLeaseRequest answers the primary's lease solicitation with an
// attested grant — unless a deferred view change is pending, in which case
// refusing new grants is what lets the primary's lease expire so the view
// change can proceed (livelock prevention).
func (r *Replica) handleLeaseRequest(from types.ProcessID, msg peerMsg) {
	view, err := decodeLeaseRequestBody(msg.body)
	if err != nil || r.leaseTerm <= 0 {
		return
	}
	if r.inVC || view != r.view || r.m.Leader(view) != from {
		return
	}
	if r.deferredVC > r.view {
		return // refusing to extend the lease we are waiting out
	}
	r.promiseGrant(r.loop.Now())
	// Grants are broadcast, not sent point-to-point: every attested message
	// must reach every peer or their cursor for our trinket would gap.
	if _, err := r.attestAndSend(kindLeaseGrant, encodeLeaseGrantBody(view, msg.ui.Seq)); err != nil {
		return
	}
	r.mx.leaseGrants.Inc()
}

// handleLeaseGrant tallies a grantor's answer to our outstanding round.
func (r *Replica) handleLeaseGrant(from types.ProcessID, msg peerMsg) {
	view, reqSeq, err := decodeLeaseGrantBody(msg.body)
	if err != nil || r.leaseTerm <= 0 {
		return
	}
	if r.inVC || view != r.view || r.m.Leader(view) != r.Self() || reqSeq != r.leaseRound {
		return
	}
	r.eng.LeaseGrant(from)
}

// grantExpired runs when the 'g' timer fires: the grantor promise horizon
// has (probably) passed, so a deferred view change may proceed — but only
// if the demand is still warranted (a request still pending, or f+1 peers
// still demanding it); the stall may have resolved itself while we waited,
// and then a leader resumes renewing its lease.
func (r *Replica) grantExpired() {
	r.grantTimerArmed = false
	if r.deferredVC <= r.view || r.inVC {
		return
	}
	if hold := r.grantUntil.Sub(r.loop.Now()); hold > 0 {
		// A renewal landed while the timer was in flight; wait it out too.
		r.grantTimerArmed = true
		r.loop.After(hold, timerEvent{kind: 'g'})
		return
	}
	target := r.deferredVC
	r.deferredVC = 0
	if r.eng.PendingLen() > 0 || len(r.vcVotes[target]) >= r.m.FPlusOne() {
		r.startViewChange(target)
		return
	}
	r.renewLease()
}
