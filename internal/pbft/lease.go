package pbft

// Leader leases for the linearizable read fast path — the 3f+1 analogue of
// internal/minbft/lease.go (see DESIGN.md §8).
//
// The primary periodically broadcasts a signed LEASE-REQUEST carrying a
// round counter; each backup answers with a signed LEASE-GRANT for that
// round, sent point-to-point (no trusted counters here, so grants need not
// be broadcast to keep any cursor contiguous). Holding 2f+1 grants
// (including its own; all n with UNIDIR_LEASE_QUORUM=full), the primary
// answers reads locally until leaseSentAt + term − term/8.
//
// With the view fixed at 0 there is no competing primary to fence off; the
// grant quorum documents that a read-serving primary is one 2f+1 quorums
// still talk to, and the freshness watermark does the linearizability work:
// a read is served only once execNext has passed every sequence number the
// primary had assigned when the read arrived, which covers every write
// acknowledged before the read was issued (an acked write has 2f+1 matching
// replies, so it committed, so this unique proposer assigned it a slot).
// Reads arriving when no lease is held are answered as fallback votes and
// the client gathers 2f+1 matching (executed seq, result) replies instead.

import (
	"time"

	"unidir/internal/smr"
	"unidir/internal/types"
)

// maxReadQueue bounds reads parked behind the execute watermark; overflow
// is answered as a fallback vote instead of queued.
const maxReadQueue = 8192

// pendingRead is one read waiting for execNext to pass the nextSeq captured
// at its arrival.
type pendingRead struct {
	wm  types.SeqNum
	req smr.ReadRequest
}

// leaseQuorum is how many grants (including the self-grant) hold a lease.
func (r *Replica) leaseQuorum() int {
	if r.leaseFull {
		return r.m.N
	}
	return r.m.Quorum()
}

// leaseValid reports whether this replica currently holds a usable lease.
// leaseUntil is the sole validity token: it is only ever set when a round
// reaches its grant quorum (noteGrant), so soliciting the next round never
// invalidates the current lease — a renewal gap must not flip reads to
// fallback votes, or a loaded primary whose grant replies queue behind its
// read backlog would spiral into permanent fallback (clients escalate
// fallback reads to broadcast, doubling load).
func (r *Replica) leaseValid(now time.Time) bool {
	return r.leaseTerm > 0 && r.m.Leader(r.view) == r.Self() &&
		now.Before(r.leaseUntil)
}

// renewLease starts a new lease round and arms the next renewal at half the
// term. Bails — without re-arming — when this replica is not the primary or
// leases are disabled.
func (r *Replica) renewLease() {
	if r.leaseTerm <= 0 || r.m.Leader(r.view) != r.Self() {
		return
	}
	now := time.Now()
	if !r.leaseUntil.IsZero() && !now.Before(r.leaseUntil) {
		r.mx.leaseExpiries.Inc()
	}
	r.leaseRound++
	r.leaseSentAt = now
	r.leaseGrants = make(map[types.ProcessID]bool)
	r.broadcast(kindLeaseRequest, r.leaseRound, nil)
	r.mx.leaseRenewals.Inc()
	r.noteGrant(r.Self())
	if !r.renewArmed {
		r.renewArmed = true
		r.deadlines.After(r.leaseTerm/2, timerEvent{kind: 'l'})
	}
}

// noteGrant tallies one grant for the in-flight round; at quorum the lease
// extends to leaseSentAt + term − term/8.
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
	r.noteGrant(from)
}

// handleReadRequest serves one client read: locally from the lease once the
// execute watermark is covered, as a fallback vote otherwise.
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
	wm := r.nextSeq
	if r.execNext > wm {
		r.replyRead(req, smr.ReadLeased)
		return
	}
	if len(r.leaseReads) >= maxReadQueue {
		r.replyRead(req, smr.ReadFallback)
		return
	}
	r.leaseReads = append(r.leaseReads, pendingRead{wm: wm, req: req})
}

// replyRead queries the state machine and answers the client directly.
// ExecSeq is the last executed sequence number — identical across correct
// replicas with the same executed prefix, which is what lets fallback votes
// match.
func (r *Replica) replyRead(req smr.ReadRequest, code byte) {
	rep := smr.ReadReply{
		Replica: r.Self(),
		Client:  req.Client,
		Num:     req.Num,
		Result:  r.querier.Query(req.Op),
		Code:    code,
		ExecSeq: uint64(r.execNext - 1),
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

// flushLeaseReads answers queued reads whose watermark execNext has passed,
// re-checking lease validity per read (a lapsed lease degrades the answer
// to a fallback vote, never a stale leased one).
func (r *Replica) flushLeaseReads() {
	if len(r.leaseReads) == 0 {
		return
	}
	now := time.Now()
	rest := r.leaseReads[:0]
	for _, pr := range r.leaseReads {
		if r.execNext <= pr.wm {
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
