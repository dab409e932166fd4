package pbft

import (
	"crypto/sha256"

	"unidir/internal/smr"
)

// orderer is the replica as its engine and its loop see it (smr.Orderer,
// smr.LoopCore). It is a separate type so that the seams add no method to
// Replica's public set.
type orderer struct{ *Replica }

// Leading: primary of the (fixed) view; there is no view change to be in.
func (r orderer) Leading() bool { return r.m.Leader(r.view) == r.Self() }

// InFlight counts assigned sequence numbers that have not executed. On a
// backup nextSeq trails execution and there is nothing in flight.
func (r orderer) InFlight() int {
	return max(int(r.nextSeq)-int(r.execNext)+1, 0)
}

// Propose assigns the next sequence number and broadcasts the PRE-PREPARE.
// It cannot fail: signing has no trusted device to refuse it, and a lost
// frame is the three phases' problem.
func (r orderer) Propose(batch []smr.Request) bool {
	r.nextSeq++
	n := r.nextSeq
	payload := smr.EncodeRequests(batch)
	digest := sha256.Sum256(payload)
	span := r.eng.StartProposeSpan(batch)
	btc := span.Context()
	r.broadcastTraced(kindPrePrepare, n, payload, btc)
	span.End()
	sl := r.slot(n)
	r.bind(sl, batch, digest, btc)
	r.progress(n, sl)
	return true
}

// ReadPoint counts in sequence numbers, which checkpoint GC never renumbers.
func (r orderer) ReadPoint() (proposed, executed, execSeq uint64) {
	done := uint64(r.execNext - 1)
	return uint64(r.nextSeq), done, done
}
