package pbft

import (
	"time"

	"unidir/internal/obs"
)

// statusTimeout bounds how long Status waits for the run goroutine. A
// healthy replica answers in microseconds; a wedged one must not wedge its
// monitors too, so past the deadline Status degrades to a stale snapshot.
const statusTimeout = 2 * time.Second

// Status implements obs.StatusProvider: a consistent cut of protocol state
// assembled on the run goroutine, or a degraded Stale snapshot when the
// replica is closed or wedged.
//
// TrustedCounters is deliberately empty: PBFT replicas have no trusted
// hardware, which is exactly the signal the hybrid-trust auditor needs —
// their checkpoint claims rest on 2f+1 signatures alone, never on
// attestation-backed counters.
func (r *Replica) Status() obs.Status {
	ch := make(chan obs.Status, 1)
	if r.events.Push(event{status: ch}) {
		select {
		case st := <-ch:
			return st
		case <-time.After(statusTimeout):
		}
	}
	return obs.Status{
		Protocol: "pbft",
		Replica:  int(r.Self()),
		Ready:    true, // with the view fixed at 0 there is nothing to wait out
		Stale:    true,
	}
}

// Ready reports readiness for /readyz probes. This PBFT runs with the view
// fixed at 0 and synchronous state transfer inside slot handling, so a live
// replica is always ready.
func (r *Replica) Ready() bool { return true }

// buildStatus runs on the run goroutine (the ev.status case in run).
func (r *Replica) buildStatus() obs.Status {
	st := obs.Status{
		Protocol:  "pbft",
		View:      uint64(r.view),
		Ready:     true,
		OpenSlots: len(r.slots),
	}
	r.eng.FillStatus(&st)
	return st
}
