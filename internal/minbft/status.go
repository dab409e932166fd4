package minbft

import "unidir/internal/obs"

// Status implements obs.StatusProvider: a consistent cut of protocol state
// assembled on the run goroutine, or a Stale snapshot when the replica is
// closed or wedged (smr.Loop.Status).
func (r *Replica) Status() obs.Status { return r.loop.Status() }

// Ready reports whether the replica is serving normally: view-active (no
// view change in progress) and state-transfer idle. It is safe from any
// goroutine and backs the /readyz endpoint.
func (r *Replica) Ready() bool { return r.loop.Ready() }

// ReadyReason is Ready with the name of the failing probe, for /readyz
// bodies. Safe from any goroutine.
func (r *Replica) ReadyReason() (bool, string) { return r.loop.ReadyReason() }

// Unready reads the atomic mirror of inVC.
func (r orderer) Unready() string {
	if r.rdyVC.Load() {
		return "view change in progress"
	}
	return ""
}

// FillStatus is the core's share of a status snapshot, on the run goroutine:
// the stale fields plus the slot and watchdog gauges.
func (r orderer) FillStatus(st *obs.Status) {
	r.FillStaleStatus(st)
	st.OpenSlots = len(r.prepOrder) - r.execIdx
	r.pruneWatchdogs()
	st.WatchdogEntries = r.loop.Watched()
	if at, ok := r.loop.OldestWatch(); ok {
		st.OldestPendingMs = (r.reqTimeout - at.Sub(r.loop.Now())).Milliseconds()
	}
}

// FillStaleStatus is what a stale snapshot can still say: the view and the
// trusted counter, both safe to read off the run goroutine.
func (r orderer) FillStaleStatus(st *obs.Status) {
	st.View = uint64(r.View())
	st.TrustedCounters = map[string]uint64{"usig": uint64(r.dev.LastAttested(usigCounter))}
}
