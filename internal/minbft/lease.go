package minbft

// Leader leases for the linearizable read fast path (DESIGN.md §8).
//
// The primary periodically broadcasts an attested LEASE-REQUEST; each backup
// answers with an attested LEASE-GRANT echoing the request's UI counter
// value — the grant is thereby bound to the grantor's trusted counter and
// totally ordered against every other message the grantor ever attests, in
// particular any later VIEW-CHANGE. Holding grants from all n replicas
// (including itself; only f+1 with UNIDIR_LEASE_QUORUM=fplus1, which is
// safe under crash and timing faults but not against a Byzantine grantor —
// see DESIGN.md §8), the primary answers reads locally until
// leaseSentAt + term − term/8, without touching the ordering path.
//
// Freshness: a read is served from the lease only once the execute index
// covers every slot that was in prepOrder when the read arrived. Any write
// acknowledged to a client before the read was issued has f+1 matching
// replies, so at least one correct replica executed it, so the unique
// lease-holding primary proposed it — it is in prepOrder. Reads that arrive
// before the watermark is covered wait in a bounded queue flushed by
// tryExecute.
//
// Exclusivity: a grantor promises not to send a VIEW-CHANGE until its
// promise horizon (receive time + term, which is at or after the primary's
// send time + term > the primary's expiry) has passed. startViewChange
// defers behind that promise; see the comment there for why deferring only
// the VIEW-CHANGE send suffices.

import (
	"time"

	"unidir/internal/smr"
	"unidir/internal/types"
)

// maxReadQueue bounds reads parked behind the execute watermark; overflow
// is answered as a fallback vote instead of queued (reads must never grow
// replica memory without bound).
const maxReadQueue = 8192

// pendingRead is one read waiting for the execute index to cover the
// prepOrder length captured at its arrival.
type pendingRead struct {
	wm  int
	req smr.ReadRequest
}

// leaseQuorum is how many grants (including the self-grant) hold a lease.
func (r *Replica) leaseQuorum() int {
	if r.leaseFull {
		return r.m.N
	}
	return r.m.FPlusOne()
}

// leaseValid reports whether this replica currently holds a usable lease.
// leaseUntil is the sole validity token: it is only ever set when a round
// reaches its grant quorum (noteGrant) and only cleared by revokeLease, so
// soliciting the next round never invalidates the current lease — a renewal
// gap must not flip reads to fallback votes, or a loaded leader whose grant
// replies queue behind its read backlog would spiral into permanent
// fallback (clients escalate fallback reads to broadcast, doubling load).
func (r *Replica) leaseValid(now time.Time) bool {
	return r.leaseTerm > 0 && !r.inVC && r.m.Leader(r.view) == r.Self() &&
		now.Before(r.leaseUntil)
}

// renewLease starts a new lease round: attest and broadcast a
// LEASE-REQUEST, reset the grant tally to the self-grant, and arm the next
// renewal at half the term so a healthy leader's lease never lapses.
// Called at startup (view-0 leader), from installView (a new leader), and
// from the 'l' renewal timer. Bails — without re-arming — when this replica
// is not the leader, a view change is in flight, or leases are disabled
// (installView restarts renewal when leadership returns). A failed
// attest/send, by contrast, must NOT stop the timer: the 'l' handler just
// cleared renewArmed, so the timer is re-armed before anything can fail, or
// one transient failure would silently end renewal until the next view
// change and strand every read on the fallback path.
func (r *Replica) renewLease() {
	if r.leaseTerm <= 0 || r.inVC || r.m.Leader(r.view) != r.Self() {
		return
	}
	if !r.renewArmed {
		r.renewArmed = true
		r.deadlines.After(r.leaseTerm/2, timerEvent{kind: 'l'})
	}
	now := time.Now()
	if !r.leaseUntil.IsZero() && !now.Before(r.leaseUntil) {
		// The previous lease lapsed before this renewal completed a round:
		// reads degraded to fallback votes in between.
		r.mx.leaseExpiries.Inc()
	}
	body := encodeLeaseRequestBody(r.view)
	ui, err := r.attestAndSend(kindLeaseRequest, body)
	if err != nil {
		return
	}
	r.leaseRound = ui.Seq
	r.leaseSentAt = now
	r.leaseGrants = make(map[types.ProcessID]bool)
	r.mx.leaseRenewals.Inc()
	// The self-grant carries the same promise any grantor makes.
	r.promiseGrant(now)
	r.noteGrant(r.Self())
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

// noteGrant tallies one grant for the in-flight round; at quorum the lease
// extends to leaseSentAt + term − term/8. Each grantor in the quorum
// promised until its receive time + term >= leaseSentAt + term, so the
// extension stays inside every promise with a term/8 margin for clock rate
// skew.
func (r *Replica) noteGrant(from types.ProcessID) {
	if r.leaseGrants == nil {
		return
	}
	r.leaseGrants[from] = true
	if len(r.leaseGrants) >= r.leaseQuorum() {
		if until := r.leaseSentAt.Add(r.leaseTerm - r.leaseTerm/8); until.After(r.leaseUntil) {
			r.leaseUntil = until
		}
	}
}

// revokeLease drops any lease this replica holds and flushes queued leased
// reads as fallback votes (their watermark indexed the outgoing view's
// prepOrder). The grantor promise is deliberately left alone: it protects
// the old primary's reads and must run out on its own.
func (r *Replica) revokeLease() {
	r.leaseUntil = time.Time{}
	r.leaseRound = 0
	r.leaseGrants = nil
	r.failLeaseReads()
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
	r.promiseGrant(time.Now())
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
	r.noteGrant(from)
}

// grantExpired runs when the 'g' timer fires: the grantor promise horizon
// has (probably) passed, so a deferred view change may proceed — but only
// if the demand is still warranted (a request still pending, or f+1 peers
// still demanding it); the stall may have resolved itself while we waited.
func (r *Replica) grantExpired() {
	r.grantTimerArmed = false
	if r.deferredVC <= r.view || r.inVC {
		return
	}
	if hold := time.Until(r.grantUntil); hold > 0 {
		// A renewal landed while the timer was in flight; wait it out too.
		r.grantTimerArmed = true
		r.deadlines.After(hold, timerEvent{kind: 'g'})
		return
	}
	target := r.deferredVC
	r.deferredVC = 0
	if len(r.pending) > 0 || len(r.vcVotes[target]) >= r.m.FPlusOne() {
		r.startViewChange(target)
	}
}

// handleReadRequest serves one client read. With a valid lease the read is
// answered locally — immediately if the execute index already covers every
// slot proposed before it arrived, else after tryExecute catches up.
// Without one the read is answered as a fallback vote: the client gathers
// f+1 matching (code, executed count, result) votes instead.
func (r *Replica) handleReadRequest(body []byte) {
	if r.querier == nil {
		return
	}
	// A client whose read window refilled faster than a frame round-tripped
	// coalesces the backlog into one batch body (sentinel-discriminated).
	if reqs, err := smr.DecodeReadRequestBatch(body); err == nil {
		for _, req := range reqs {
			r.handleOneRead(req)
		}
		return
	}
	req, err := smr.DecodeReadRequest(body)
	if err != nil {
		return
	}
	r.handleOneRead(req)
}

func (r *Replica) handleOneRead(req smr.ReadRequest) {
	now := time.Now()
	if !r.leaseValid(now) {
		r.replyRead(req, smr.ReadFallback)
		return
	}
	wm := len(r.prepOrder)
	if r.execIdx >= wm {
		r.replyRead(req, smr.ReadLeased)
		return
	}
	if len(r.leaseReads) >= maxReadQueue {
		r.replyRead(req, smr.ReadFallback)
		return
	}
	r.leaseReads = append(r.leaseReads, pendingRead{wm: wm, req: req})
}

// replyRead queries the state machine and buffers the answer; replies
// accumulated while the run loop drains one event burst are sent as one
// frame per client by flushReadReplies, so a read burst costs the leader
// one send per client instead of one per read.
func (r *Replica) replyRead(req smr.ReadRequest, code byte) {
	rep := smr.ReadReply{
		Replica: r.Self(),
		Client:  req.Client,
		Num:     req.Num,
		Result:  r.querier.Query(req.Op),
		Code:    code,
		ExecSeq: r.execCount,
	}
	if r.readReplies == nil {
		r.readReplies = make(map[uint64][][]byte)
	}
	r.readReplies[req.Client] = append(r.readReplies[req.Client], rep.Encode())
	if code == smr.ReadLeased {
		r.mx.leasedReads.Inc()
	} else {
		r.mx.fallbackReads.Inc()
	}
}

// flushReadReplies sends the replies buffered during the current event
// burst: a lone reply goes out in its bare wire form (identical to the
// unbatched path), several to the same client coalesce into one batch
// frame.
func (r *Replica) flushReadReplies() {
	for c, reps := range r.readReplies {
		if len(reps) == 1 {
			_ = r.tr.Send(types.ProcessID(c), reps[0])
		} else {
			_ = r.tr.Send(types.ProcessID(c), smr.EncodeReadReplyBatch(reps))
		}
		delete(r.readReplies, c)
	}
}

// flushLeaseReads answers queued reads whose watermark the execute index
// now covers, re-checking lease validity per read (a lease that lapsed
// while the read waited degrades it to a fallback vote, never a stale
// leased answer).
func (r *Replica) flushLeaseReads() {
	if len(r.leaseReads) == 0 {
		return
	}
	now := time.Now()
	rest := r.leaseReads[:0]
	for _, pr := range r.leaseReads {
		if r.execIdx < pr.wm {
			rest = append(rest, pr)
			continue
		}
		if r.leaseValid(now) {
			r.replyRead(pr.req, smr.ReadLeased)
		} else {
			r.replyRead(pr.req, smr.ReadFallback)
		}
	}
	r.leaseReads = rest
}

// failLeaseReads flushes every queued read as a fallback vote.
func (r *Replica) failLeaseReads() {
	reads := r.leaseReads
	r.leaseReads = nil
	for _, pr := range reads {
		r.replyRead(pr.req, smr.ReadFallback)
	}
}
