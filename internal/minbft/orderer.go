package minbft

import "unidir/internal/smr"

// orderer is the replica as its engine and its loop see it (smr.Orderer,
// smr.LoopCore). It is a separate type so that the seams add no method to
// Replica's public set.
type orderer struct{ *Replica }

// Leading: primary of the current view, and no view change in flight.
func (r orderer) Leading() bool {
	return !r.inVC && r.m.Leader(r.view) == r.Self()
}

// InFlight counts the prepares this primary sent in the current view whose
// slots have not executed (entry.mine; reset at view install).
func (r orderer) InFlight() int { return r.inFlight }

// Propose attests and broadcasts one PREPARE. False when the USIG refused
// or the broadcast failed: nothing is in flight, and the request watchdogs
// drive recovery.
func (r orderer) Propose(batch []smr.Request) bool {
	p, body := prepare{View: r.view, Reqs: batch}.withBody()
	span := r.eng.StartProposeSpan(batch)
	ui, err := r.attestAndSendTraced(kindPrepare, body, span)
	btc := span.Context() // capture before End: the handle is pooled
	span.End()
	if err != nil {
		return false
	}
	r.inFlight++
	// The primary's prepare is its own endorsement.
	r.acceptPrepare(r.Self(), p, ui, btc)
	return true
}

// ReadPoint counts in accepted prepares of the current view: orderBase is
// how many of them checkpoint GC has trimmed off the front of prepOrder, so
// the positions keep growing when the slice is cut. ExecSeq is the
// fresh-batch count, identical across replicas with the same executed
// prefix.
func (r orderer) ReadPoint() (proposed, executed, execSeq uint64) {
	return r.orderBase + uint64(len(r.prepOrder)), r.orderBase + uint64(r.execIdx), r.execCount
}
