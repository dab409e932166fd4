package smr

// The read server and the lease tally (DESIGN.md §8).
//
// The cores run the lease protocol — the leader's request for grants, the
// grant messages, how they are authenticated, MinBFT's grantor promise — and
// report its events here: LeaseRoundStart when a request for grants is on the
// wire, LeaseGrant per valid grant, LeaseRevoke when the view ends. Holding
// grantQuorum grants, the leader answers reads locally until
// sentAt + term − term/8, without touching the ordering path.
//
// Freshness: a read is served from the lease only once execution covers
// every batch the leader had proposed when the read arrived. Any write
// acknowledged to a client before the read was issued has a reply quorum
// behind it, so a correct replica executed it, so the unique lease-holding
// leader proposed it. Reads that arrive ahead of execution wait in a bounded
// queue that AfterExecute drains. Without a valid lease a read is answered
// at once as a fallback vote, and the client gathers a quorum of matching
// (code, executed watermark, result) votes instead.

import (
	"time"

	"unidir/internal/types"
)

// maxReadQueue bounds reads parked behind the execute watermark; overflow
// is answered as a fallback vote instead of queued (reads must never grow
// replica memory without bound).
const maxReadQueue = 8192

// pendingRead is one read waiting for execution to reach the proposed
// position captured at its arrival (Orderer.ReadPoint).
type pendingRead struct {
	at  uint64
	req ReadRequest
}

// leaseValid reports whether this replica currently holds a usable lease.
// leaseUntil is the sole validity token: it is only ever set when a round
// reaches its grant quorum (LeaseGrant) and only cleared by LeaseRevoke, so
// soliciting the next round never invalidates the current lease — a renewal
// gap must not flip reads to fallback votes, or a loaded leader whose grant
// replies queue behind its read backlog would spiral into permanent
// fallback (clients escalate fallback reads to broadcast, doubling load).
func (e *Engine) leaseValid(now time.Time) bool {
	return e.leaseTerm > 0 && e.core.Leading() && now.Before(e.leaseUntil)
}

// LeaseRoundStart opens a new tally: the leader's request for grants went on
// the wire at sentAt, and its own grant is the first. Grants of the previous
// round no longer count; the lease they earned stays until it runs out.
func (e *Engine) LeaseRoundStart(sentAt time.Time) {
	if !e.leaseUntil.IsZero() && !sentAt.Before(e.leaseUntil) {
		// The previous lease lapsed before this renewal completed a round:
		// reads degraded to fallback votes in between.
		e.mx.leaseExpiries.Inc()
	}
	e.leaseSentAt = sentAt
	e.leaseGrants = make(map[types.ProcessID]bool)
	e.mx.leaseRenewals.Inc()
	e.LeaseGrant(e.tr.Self())
}

// LeaseGrant tallies one grant for the open round; at quorum the lease
// extends to sentAt + term − term/8. Every grantor in the quorum promised
// until its receive time + term >= sentAt + term, so the extension stays
// inside every promise with a term/8 margin for clock rate skew.
func (e *Engine) LeaseGrant(from types.ProcessID) {
	if e.leaseGrants == nil {
		return
	}
	e.leaseGrants[from] = true
	if len(e.leaseGrants) >= e.grantQuorum {
		if until := e.leaseSentAt.Add(e.leaseTerm - e.leaseTerm/8); until.After(e.leaseUntil) {
			e.leaseUntil = until
		}
	}
}

// LeaseRevoke drops any lease this replica holds and answers the queued
// leased reads as fallback votes: their positions belong to the view that
// is ending.
func (e *Engine) LeaseRevoke() {
	e.leaseUntil = time.Time{}
	e.leaseGrants = nil
	e.failLeaseReads()
}

// HandleRead serves the body of one client read frame: a single read, or the
// batch a client coalesces when its read window refilled faster than a frame
// round-tripped (sentinel-discriminated).
func (e *Engine) HandleRead(body []byte) {
	if e.querier == nil {
		return
	}
	if reqs, err := DecodeReadRequestBatch(body); err == nil {
		for _, req := range reqs {
			e.handleOneRead(req)
		}
		return
	}
	req, err := DecodeReadRequest(body)
	if err != nil {
		return
	}
	e.handleOneRead(req)
}

func (e *Engine) handleOneRead(req ReadRequest) {
	proposed, executed, execSeq := e.core.ReadPoint()
	switch {
	case !e.leaseValid(e.clock.Now()):
		e.replyRead(req, ReadFallback, execSeq)
	case executed >= proposed:
		e.replyRead(req, ReadLeased, execSeq)
	case len(e.leaseReads) >= maxReadQueue:
		e.replyRead(req, ReadFallback, execSeq)
	default:
		e.leaseReads = append(e.leaseReads, pendingRead{at: proposed, req: req})
	}
}

// replyRead queries the state machine and buffers the answer; replies
// accumulated while the run loop drains one event burst are sent as one
// frame per client by FlushReads, so a read burst costs the leader one send
// per client instead of one per read. execSeq is identical across correct
// replicas with the same executed prefix, which is what lets fallback votes
// match.
func (e *Engine) replyRead(req ReadRequest, code byte, execSeq uint64) {
	rep := ReadReply{
		Replica: e.tr.Self(),
		Client:  req.Client,
		Num:     req.Num,
		Result:  e.querier.Query(req.Op),
		Code:    code,
		ExecSeq: execSeq,
	}
	if e.readReplies == nil {
		e.readReplies = make(map[uint64][][]byte)
	}
	e.readReplies[req.Client] = append(e.readReplies[req.Client], rep.Encode())
	if code == ReadLeased {
		e.mx.leasedReads.Inc()
	} else {
		e.mx.fallbackReads.Inc()
	}
}

// FlushReads sends the read replies buffered during the current event burst
// (the loop calls it once per burst): a lone reply goes out in its bare wire
// form, several to the same client coalesce into one batch frame.
func (e *Engine) FlushReads() {
	for c, reps := range e.readReplies {
		if len(reps) == 1 {
			_ = e.tr.Send(types.ProcessID(c), reps[0])
		} else {
			_ = e.tr.Send(types.ProcessID(c), EncodeReadReplyBatch(reps))
		}
		delete(e.readReplies, c)
	}
}

// flushLeaseReads answers queued reads whose position execution now covers,
// re-checking lease validity (a lease that lapsed while the read waited
// degrades it to a fallback vote, never a stale leased answer).
func (e *Engine) flushLeaseReads() {
	if len(e.leaseReads) == 0 {
		return
	}
	_, executed, execSeq := e.core.ReadPoint()
	code := ReadFallback
	if e.leaseValid(e.clock.Now()) {
		code = ReadLeased
	}
	rest := e.leaseReads[:0]
	for _, pr := range e.leaseReads {
		if executed < pr.at {
			rest = append(rest, pr)
			continue
		}
		e.replyRead(pr.req, code, execSeq)
	}
	e.leaseReads = rest
}

// failLeaseReads answers every queued read as a fallback vote.
func (e *Engine) failLeaseReads() {
	if len(e.leaseReads) == 0 {
		return
	}
	_, _, execSeq := e.core.ReadPoint()
	reads := e.leaseReads
	e.leaseReads = nil
	for _, pr := range reads {
		e.replyRead(pr.req, ReadFallback, execSeq)
	}
}
