package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unidir/internal/smr"
)

const (
	// catchupCap bounds the wait for the restarted replica; a replica still
	// behind by then reads as catchup_ms = the cap, not as a failed run.
	catchupCap = 10 * time.Second
	// catchupLag is how close (in executed batches) to a live replica
	// counts as caught up.
	catchupLag = 64
)

// recovery is the failover scenario's timeline.
type recovery struct {
	timeout   time.Duration // the configured view-change timeout
	killAt    time.Time
	restartAt time.Time
	catchup   time.Duration
	caughtUp  bool
	stall     time.Duration // slowest PUT while the replica caught up
	events    []opEvent     // completions in the order the awaiter saw them
}

// runFailover runs the one-kill scenario while the open-loop generator
// keeps sending on schedule: 0.4·total steady, kill the view-0 primary,
// 0.6·total on 2 of 3 (outage included). That is the end-to-end interval,
// samples[0] to samples[1], and where the generator stops.
//
// Then the killed replica restarts from its data dir on the same address
// under a trickle of sequential PUTs (one every trickleEvery) until it has
// caught up; samples[2] ends the scenario. The restart is measured per
// layer only (recovery.*) and not under the open-loop rate: at the baseline
// a replica restarting into load is handed seconds of stale requests and
// protocol backlog, falls into repeated state transfers and view-change
// demands, and the client can collect f+1 overload replies for requests
// that were in fact executed, so runs failed their own read-back.
// One kill only, for the same reason: a second kill/restart round wedged
// the prototype, and a benchmark must not be flaky at its own baseline.
func runFailover(c *benchCluster, gen *generator, tr *tracedRun, state *keyState, res *runResult,
	start, t0 time.Time, total time.Duration) ([]sample, *recovery, error) {
	const primary = 0
	rec := &recovery{timeout: c.w.timeout}
	gen.wrec = newRecorder(t0, shape{windows: 1, window: total})
	gen.keepEvents = true
	gen.stopAt(t0.Add(total))
	done := make(chan struct{})
	go func() { gen.run(start); close(done) }()

	sleepUntil(t0)
	tr.begin()
	samples := []sample{takeSample(c)}
	sleepUntil(t0.Add(total * 4 / 10))
	rec.killAt = time.Now()
	c.kill(primary)
	sleepUntil(t0.Add(total))
	samples = append(samples, takeSample(c))
	<-done
	rec.events = gen.events

	rec.restartAt = time.Now()
	if err := c.restart(primary); err != nil {
		return nil, nil, fmt.Errorf("restart replica %d: %w", primary, err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), rec.restartAt.Add(catchupCap))
	defer cancel()
	buf := make([]byte, state.valueSize)
	for k := 0; !rec.caughtUp && ctx.Err() == nil; k = (k + 1) % len(state.names) {
		ver := state.nextValue(k, buf)
		before := time.Now()
		call, err := c.kv.PutAsync(ctx, state.names[k], buf)
		if err == nil {
			select {
			case <-call.Done():
				var out []byte
				if out, err = call.Result(); err == nil {
					err = checkPut(out)
				}
			case <-ctx.Done():
				err = ctx.Err() // still in flight at the cap; the read-back judges the cluster
			}
		}
		res.Attempted++
		switch {
		case err == nil:
			state.acked[k].Store(ver)
		case errors.Is(err, smr.ErrOverloaded), ctx.Err() != nil:
			// Overload is retryable, and the trickle is the retry: the next
			// PUT follows.
		default:
			res.failf(1, "put during catch-up: %v", err)
		}
		if d := time.Since(before); d > rec.stall {
			rec.stall = d
		}
		time.Sleep(trickleEvery)
		rec.caughtUp = caughtUp(c, primary)
	}
	rec.catchup = time.Since(rec.restartAt)
	tr.end()
	return append(samples, takeSample(c)), rec, nil
}

// trickleEvery paces the PUTs that keep the log moving while the restarted
// replica catches up (state transfer is driven by traffic).
const trickleEvery = 20 * time.Millisecond

// caughtUp reports whether replica i is in the live replicas' view and
// within catchupLag executed batches of the most advanced one.
func caughtUp(c *benchCluster, i int) bool {
	var mine, best uint64
	var myView, bestView uint64
	ok := false
	for _, sp := range c.providers() {
		st := sp.Status()
		if st.Stale {
			continue
		}
		if st.Replica == i {
			mine, myView, ok = st.ExecCount, st.View, st.Ready
		} else if st.ExecCount >= best {
			best, bestView = st.ExecCount, st.View
		}
	}
	return ok && myView == bestView && mine+catchupLag >= best
}

// report derives the recovery metrics from the completion timeline.
func (r *recovery) report(res *runResult) {
	// The outage ends at the first completion of a request that fell due
	// after the kill: requests in flight at the kill that the backups had
	// already committed complete without a leader and do not end it.
	var outage time.Duration
	for _, e := range r.events {
		if e.from.After(r.killAt) {
			outage = e.done.Sub(r.killAt)
			break
		}
	}
	due := 0
	for _, e := range r.events {
		if e.from.After(r.killAt) && !e.from.After(r.killAt.Add(outage)) {
			due++
		}
	}
	res.set1("recovery.outage_ms", "ms", ms(outage))
	res.set1("recovery.view_change_ms", "ms", ms(outage-r.timeout))
	res.set1("recovery.ops_due_in_outage", "count", float64(due))
	res.set1("recovery.catchup_ms", "ms", ms(r.catchup))
	res.set1("recovery.restart_stall_ms", "ms", ms(r.stall))
	if outage == 0 {
		res.failf(1, "failover: no request due after the kill ever completed")
	}
}
