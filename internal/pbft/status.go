package pbft

import "unidir/internal/obs"

// Status implements obs.StatusProvider: a consistent cut of protocol state
// assembled on the run goroutine, or a Stale snapshot when the replica is
// closed or wedged (smr.Loop.Status).
//
// TrustedCounters is deliberately empty: PBFT replicas have no trusted
// hardware, which is exactly the signal the hybrid-trust auditor needs —
// their checkpoint claims rest on 2f+1 signatures alone, never on
// attestation-backed counters.
func (r *Replica) Status() obs.Status { return r.loop.Status() }

// Ready reports whether the replica is serving normally: with the view fixed
// at 0, that is whether no state transfer is in progress. Safe from any
// goroutine; it backs the /readyz endpoint.
func (r *Replica) Ready() bool { return r.loop.Ready() }

// ReadyReason is Ready with the name of the failing probe, for /readyz
// bodies. Safe from any goroutine.
func (r *Replica) ReadyReason() (bool, string) { return r.loop.ReadyReason() }

// Unready: there is no view change to be in.
func (r orderer) Unready() string { return "" }

// FillStatus is the core's share of a status snapshot, on the run goroutine.
func (r orderer) FillStatus(st *obs.Status) {
	st.View = uint64(r.view)
	st.OpenSlots = len(r.slots)
}

// FillStaleStatus adds nothing: the view is fixed at 0.
func (r orderer) FillStaleStatus(*obs.Status) {}
