package watch

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"unidir/internal/obs"
)

// Audit rule names, as emitted in Violation.Rule and the
// watch_violations_total{rule=...} metric.
const (
	RuleCheckpointDivergence = "checkpoint-divergence"
	RuleCounterRegression    = "trusted-counter-regression"
	RuleExecRegression       = "exec-regression"
	RuleExecExceedsProposed  = "executed-exceeds-proposed"
	RuleLeaseConflict        = "lease-conflict"
)

// ckptKeep bounds the checkpoint-digest history: counts more than this far
// below the newest seen checkpoint are pruned. Any replica lagging further
// than this is comparing against checkpoints nobody else still reports, so
// retention would only grow memory on long soaks.
const ckptKeep = 64

type ckptClaim struct {
	digest  string
	replica int
}

type ctrKey struct {
	replica int
	name    string
}

// auditor holds the cross-scrape state the safety rules compare against.
// All methods are called from the watcher's scrape goroutine; the mutex
// only guards the accumulated violation list, which Violations() reads
// from other goroutines.
type auditor struct {
	ckpts     map[uint64]ckptClaim // first digest claim per checkpoint count
	ckptMax   uint64               // newest checkpoint count seen (for pruning)
	ctrMax    map[ctrKey]uint64
	execMax   map[int]uint64
	leases    map[uint64]int // first lease holder seen per term
	prevExec  uint64         // previous scrape's group exec watermark
	execSeen  bool           // prevExec holds a watermark
	prevView  map[int]uint64
	viewFlaps uint64

	mu  sync.Mutex
	all []Violation
}

func newAuditor() *auditor {
	return &auditor{
		ckpts:    make(map[uint64]ckptClaim),
		ctrMax:   make(map[ctrKey]uint64),
		execMax:  make(map[int]uint64),
		leases:   make(map[uint64]int),
		prevView: make(map[int]uint64),
	}
}

func evidence(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		return json.RawMessage(fmt.Sprintf("%q", err.Error()))
	}
	return b
}

// observe audits one scrape's statuses against the accumulated state and
// returns the group's health and the new violations.
//
// Soundness notes:
//   - Stale statuses (assembled off the run goroutine, counters possibly
//     zero) are skipped by every monotonicity rule — a wedged replica must
//     not read as a regressed one.
//   - executed ≤ proposed is checked across scrapes: the PREVIOUS scrape's
//     group execution watermark against THIS scrape's proposal total.
//     Within one scrape the comparison would race (a batch can be proposed
//     and executed between two source fetches); across scrapes it is sound
//     because proposals are monotone and strictly precede execution.
//   - Proposal counters are process-lifetime and reset on restart, so this
//     rule is only meaningful for continuously-running groups; a restart can
//     mask a real violation but never fabricate one (see DESIGN.md §10).
func (a *auditor) observe(statuses []obs.Status) (GroupHealth, []Violation) {
	var out []Violation
	flag := func(v Violation) { out = append(out, v) }
	flaggedCkpts := make(map[uint64]bool) // one divergence violation per count per scrape
	var g GroupHealth
	var proposed uint64 // for the deferred executed-vs-proposed rule
	seenExec := false

	for _, st := range statuses {
		g.Replicas++

		// View flaps are counted from non-stale samples only (a stale
		// fallback still reads the real view, but keep the rule uniform).
		if !st.Stale {
			if prev, ok := a.prevView[st.Replica]; ok && st.View > prev {
				a.viewFlaps += st.View - prev
			}
			a.prevView[st.Replica] = st.View
		}
		if st.View > g.View {
			g.View = st.View
		}
		if !st.Ready {
			g.NotReady = append(g.NotReady, st.Replica)
		}

		if st.Stale {
			g.Stale++
			continue // no counters to audit in a degraded snapshot
		}

		// Commit-lag spread and group watermark.
		if !seenExec || st.ExecCount < g.MinExec {
			g.MinExec = st.ExecCount
		}
		if st.ExecCount > g.MaxExec {
			g.MaxExec = st.ExecCount
		}
		seenExec = true
		proposed += st.ProposedBatches
		if st.OldestPendingMs > g.OldestPendingMs {
			g.OldestPendingMs = st.OldestPendingMs
		}

		// Rule: checkpoint digests must agree at equal counts.
		if ck := st.Checkpoint; ck != nil {
			if prev, ok := a.ckpts[ck.Count]; ok {
				if prev.digest != ck.Digest && !flaggedCkpts[ck.Count] {
					flaggedCkpts[ck.Count] = true
					flag(a.ckptViolation(ck.Count, prev, statuses))
				}
			} else {
				a.ckpts[ck.Count] = ckptClaim{digest: ck.Digest, replica: st.Replica}
			}
			if ck.Count > a.ckptMax {
				a.ckptMax = ck.Count
			}
		}

		// Rule: trusted counters never regress. This is the hardware claim
		// itself — TrInc refuses to re-attest a used value — so a regression
		// here means a forged status or a broken/cloned device.
		for name, val := range st.TrustedCounters {
			key := ctrKey{st.Replica, name}
			if prev, ok := a.ctrMax[key]; ok && val < prev {
				flag(Violation{
					Rule: RuleCounterRegression,
					Detail: fmt.Sprintf("replica %d trusted counter %q regressed %d -> %d",
						st.Replica, name, prev, val),
					Evidence: evidence(map[string]any{
						"replica": st.Replica, "counter": name,
						"previous": prev, "current": val,
					}),
				})
			}
			if val > a.ctrMax[key] {
				a.ctrMax[key] = val
			}
		}

		// Rule: the execution watermark never regresses. (State transfer
		// only moves it forward; a crash-restart of a persistent replica
		// resumes from its stable checkpoint, which this rule treats as a
		// regression — the doctor watches running processes, and a monitored
		// replica silently restarting IS a reportable event.)
		if prev, ok := a.execMax[st.Replica]; ok && st.ExecCount < prev {
			flag(Violation{
				Rule: RuleExecRegression,
				Detail: fmt.Sprintf("replica %d exec watermark regressed %d -> %d",
					st.Replica, prev, st.ExecCount),
				Evidence: evidence(map[string]any{
					"replica": st.Replica, "previous": prev, "current": st.ExecCount,
				}),
			})
		}
		if st.ExecCount > a.execMax[st.Replica] {
			a.execMax[st.Replica] = st.ExecCount
		}

		// Rule: at most one lease holder per term. Holders other than the
		// first seen for a term break leased-read linearizability.
		if l := st.Lease; l != nil {
			if prev, ok := a.leases[l.Term]; ok && prev != l.Holder {
				flag(Violation{
					Rule: RuleLeaseConflict,
					Detail: fmt.Sprintf("term %d has two lease holders: %d and %d",
						l.Term, prev, l.Holder),
					Evidence: evidence(map[string]any{
						"term": l.Term, "holders": []int{prev, l.Holder},
					}),
				})
			} else if !ok {
				a.leases[l.Term] = l.Holder
			}
			g.LeaseHolders = append(g.LeaseHolders, l.Holder)
		}
	}

	// Rule: executed ≤ proposed, deferred one scrape (see soundness notes).
	// Only a scrape that saw statuses says what was proposed.
	if a.execSeen && len(statuses) > 0 && g.Stale == 0 && a.prevExec > proposed {
		flag(Violation{
			Rule: RuleExecExceedsProposed,
			Detail: fmt.Sprintf("group executed %d batches by the previous scrape but only %d were ever proposed",
				a.prevExec, proposed),
			Evidence: evidence(map[string]any{
				"executed_watermark": a.prevExec, "proposed_total": proposed,
			}),
		})
	}

	// Health finalization + cross-scrape deltas.
	if seenExec {
		g.LagSpread = g.MaxExec - g.MinExec
		if a.execSeen && g.MaxExec > a.prevExec {
			g.ExecDelta = g.MaxExec - a.prevExec
		}
		a.prevExec, a.execSeen = g.MaxExec, true
	}
	g.ViewFlaps = a.viewFlaps
	sort.Ints(g.NotReady)
	sort.Ints(g.LeaseHolders)

	a.prune()

	if len(out) > 0 {
		a.mu.Lock()
		a.all = append(a.all, out...)
		a.mu.Unlock()
	}
	return g, out
}

// ckptViolation assembles a checkpoint-divergence violation for count:
// every claim visible for it — this scrape's plus the recorded one — goes
// into the evidence. Blame needs f+1 claims agreeing on one digest: at most
// f replicas lie, so such a digest is vouched for by an honest replica, and
// the replicas departing from it diverge. Without one (two claims of a
// three-replica group, say, one replica lagging) the violation stands but
// its blame list is empty — the statuses alone cannot say who lied
// (DESIGN.md §10). f comes from the group's protocol and its size: the
// larger of this scrape's count and the replicas the auditor has ever seen,
// so a member whose fetch failed does not lower f.
func (a *auditor) ckptViolation(count uint64, prev ckptClaim, statuses []obs.Status) Violation {
	claims := []ckptClaim{prev}
	protocol := ""
	for _, st := range statuses {
		protocol = st.Protocol
		if st.Stale || st.Checkpoint == nil || st.Checkpoint.Count != count || st.Replica == prev.replica {
			continue
		}
		claims = append(claims, ckptClaim{digest: st.Checkpoint.Digest, replica: st.Replica})
	}
	f := faultBound(protocol, max(len(statuses), len(a.prevView)))
	tally := make(map[string]int)
	for _, c := range claims {
		tally[c.digest]++
	}
	agreed := ""
	for d, votes := range tally {
		if votes >= f+1 {
			if agreed != "" {
				agreed = "" // two f+1-backed digests: the fault bound itself is broken
				break
			}
			agreed = d
		}
	}
	diverging := []int{}
	evClaims := make([]map[string]any, 0, len(claims))
	for _, c := range claims {
		evClaims = append(evClaims, map[string]any{"replica": c.replica, "digest": c.digest})
		if agreed != "" && c.digest != agreed {
			diverging = append(diverging, c.replica)
		}
	}
	sort.Ints(diverging)
	detail := fmt.Sprintf("checkpoint %d: replicas %v diverge from the digest %d replicas agree on",
		count, diverging, f+1)
	if agreed == "" {
		detail = fmt.Sprintf("checkpoint %d: divergence, blame undetermined (no digest has %d agreeing claims)",
			count, f+1)
	}
	return Violation{
		Rule:   RuleCheckpointDivergence,
		Detail: detail,
		Evidence: evidence(map[string]any{
			"checkpoint_count": count,
			"claims":           evClaims,
			"f":                f,
			"agreed_digest":    agreed,
			"diverging":        diverging,
		}),
	}
}

// faultBound is the f a group of n replicas tolerates: MinBFT runs n = 2f+1,
// PBFT n = 3f+1. Any other protocol gets MinBFT's larger bound, which only
// makes blame harder to assign.
func faultBound(protocol string, n int) int {
	if protocol == "pbft" {
		return (n - 1) / 3
	}
	return (n - 1) / 2
}

// prune drops checkpoint-digest history far below the newest checkpoint so
// unbounded soaks keep bounded audit state.
func (a *auditor) prune() {
	for count := range a.ckpts {
		if a.ckptMax > ckptKeep && count < a.ckptMax-ckptKeep {
			delete(a.ckpts, count)
		}
	}
}

func (a *auditor) violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Violation(nil), a.all...)
}

func (a *auditor) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.all)
}
