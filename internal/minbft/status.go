package minbft

import (
	"time"

	"unidir/internal/obs"
)

// statusTimeout bounds how long Status waits for the run goroutine. A
// healthy replica answers in microseconds; a wedged one must not wedge its
// monitors too, so past the deadline Status degrades to a stale snapshot.
const statusTimeout = 2 * time.Second

// Status implements obs.StatusProvider. The snapshot is assembled on the
// run goroutine — a status request rides the ordinary event queue — so
// every field belongs to one consistent cut of protocol state: the view,
// checkpoint, and watermarks can never be torn across a concurrent view
// change. When the replica is closed or does not answer within
// statusTimeout, a degraded snapshot (Stale: true, counters zero) built
// from the concurrency-safe mirrors is returned instead; the watch
// auditor's monotonicity rules skip stale samples.
func (r *Replica) Status() obs.Status {
	ch := make(chan obs.Status, 1)
	if r.events.Push(event{status: ch}) {
		select {
		case st := <-ch:
			return st
		case <-time.After(statusTimeout):
		}
	}
	ready, reason := r.ReadyReason()
	return obs.Status{
		Protocol:    "minbft",
		Replica:     int(r.Self()),
		View:        uint64(r.View()),
		Ready:       ready,
		ReadyReason: reason,
		Stale:       true,
		TrustedCounters: map[string]uint64{
			"usig": uint64(r.dev.LastAttested(usigCounter)),
		},
	}
}

// Ready reports whether the replica is serving normally: view-active (no
// view change in progress) and state-transfer idle. It is safe from any
// goroutine and backs the /readyz endpoint.
func (r *Replica) Ready() bool {
	ready, _ := r.ReadyReason()
	return ready
}

// ReadyReason is Ready with the name of the failing probe, for /readyz
// bodies. Safe from any goroutine (atomic mirrors of inVC and of the
// engine's state fetch).
func (r *Replica) ReadyReason() (bool, string) {
	switch {
	case r.rdyVC.Load():
		return false, "view change in progress"
	case r.eng.Fetching():
		return false, "state transfer in progress"
	}
	return true, ""
}

// buildStatus runs on the run goroutine (the ev.status case in run).
func (r *Replica) buildStatus() obs.Status {
	st := obs.Status{
		Protocol:  "minbft",
		View:      uint64(r.view),
		OpenSlots: len(r.prepOrder) - r.execIdx,
		TrustedCounters: map[string]uint64{
			"usig": uint64(r.dev.LastAttested(usigCounter)),
		},
	}
	r.eng.FillStatus(&st)
	r.pruneWatchdogs()
	st.WatchdogEntries = r.deadlines.Watched()
	if at, ok := r.deadlines.OldestWatch(); ok {
		st.OldestPendingMs = (r.reqTimeout - time.Until(at)).Milliseconds()
	}
	st.Ready, st.ReadyReason = r.ReadyReason()
	return st
}
