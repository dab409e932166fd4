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

// ckptKeep bounds the per-shard checkpoint-digest history: counts more than
// this far below the shard's newest seen checkpoint are pruned. Any replica
// lagging further than this is comparing against checkpoints nobody else
// still reports, so retention would only grow memory on long soaks.
const ckptKeep = 64

type shardReplica struct {
	shard   string
	replica int
}

type ckptKey struct {
	shard string
	count uint64
}

type ckptClaim struct {
	digest  string
	replica int
}

type ctrKey struct {
	shardReplica
	name string
}

type leaseKey struct {
	shard string
	term  uint64
}

// auditor holds the cross-scrape state the safety rules compare against.
// All methods are called from the watcher's scrape goroutine; the mutex
// only guards the accumulated violation list, which Violations() reads
// from other goroutines.
type auditor struct {
	ckpts     map[ckptKey]ckptClaim
	ckptMax   map[string]uint64 // newest checkpoint count seen per shard (for pruning)
	ctrMax    map[ctrKey]uint64
	execMax   map[shardReplica]uint64
	leases    map[leaseKey]int
	prevExec  map[string]uint64 // previous scrape's group exec watermark per shard
	prevView  map[shardReplica]uint64
	viewFlaps map[string]uint64

	mu  sync.Mutex
	all []Violation
}

func newAuditor() *auditor {
	return &auditor{
		ckpts:     make(map[ckptKey]ckptClaim),
		ckptMax:   make(map[string]uint64),
		ctrMax:    make(map[ctrKey]uint64),
		execMax:   make(map[shardReplica]uint64),
		leases:    make(map[leaseKey]int),
		prevExec:  make(map[string]uint64),
		prevView:  make(map[shardReplica]uint64),
		viewFlaps: make(map[string]uint64),
	}
}

func evidence(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		return json.RawMessage(fmt.Sprintf("%q", err.Error()))
	}
	return b
}

// observe audits one scrape's statuses against the accumulated state,
// fills groups with per-shard health, and returns the new violations.
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
func (a *auditor) observe(statuses []obs.Status, groups map[string]GroupHealth) []Violation {
	var out []Violation
	flag := func(v Violation) { out = append(out, v) }
	flaggedCkpts := make(map[ckptKey]bool) // one divergence violation per (shard, count) per scrape

	// Per-shard aggregation scaffolding for both health and the deferred
	// executed-vs-proposed rule.
	type agg struct {
		health   GroupHealth
		proposed uint64
		seenExec bool
	}
	byShard := make(map[string]*agg)
	shardOf := func(shard string) *agg {
		g, ok := byShard[shard]
		if !ok {
			g = &agg{health: GroupHealth{Shard: shard}}
			byShard[shard] = g
		}
		return g
	}

	for _, st := range statuses {
		g := shardOf(st.Shard)
		g.health.Replicas++
		sr := shardReplica{st.Shard, st.Replica}

		// View flaps are counted from non-stale samples only (a stale
		// fallback still reads the real view, but keep the rule uniform).
		if !st.Stale {
			if prev, ok := a.prevView[sr]; ok && st.View > prev {
				a.viewFlaps[st.Shard] += st.View - prev
			}
			a.prevView[sr] = st.View
		}
		if st.View > g.health.View {
			g.health.View = st.View
		}
		if !st.Ready {
			g.health.NotReady = append(g.health.NotReady, st.Replica)
		}

		if st.Stale {
			g.health.Stale++
			continue // no counters to audit in a degraded snapshot
		}

		// Commit-lag spread and group watermark.
		if !g.seenExec || st.ExecCount < g.health.MinExec {
			g.health.MinExec = st.ExecCount
		}
		if st.ExecCount > g.health.MaxExec {
			g.health.MaxExec = st.ExecCount
		}
		g.seenExec = true
		g.proposed += st.ProposedBatches
		if st.OldestPendingMs > g.health.OldestPendingMs {
			g.health.OldestPendingMs = st.OldestPendingMs
		}

		// Rule: checkpoint digests must agree at equal (shard, count).
		if ck := st.Checkpoint; ck != nil {
			key := ckptKey{st.Shard, ck.Count}
			if prev, ok := a.ckpts[key]; ok {
				if prev.digest != ck.Digest && !flaggedCkpts[key] {
					flaggedCkpts[key] = true
					flag(a.ckptViolation(key, prev, statuses))
				}
			} else {
				a.ckpts[key] = ckptClaim{digest: ck.Digest, replica: st.Replica}
			}
			if ck.Count > a.ckptMax[st.Shard] {
				a.ckptMax[st.Shard] = ck.Count
			}
		}

		// Rule: trusted counters never regress. This is the hardware claim
		// itself — TrInc refuses to re-attest a used value — so a regression
		// here means a forged status or a broken/cloned device.
		for name, val := range st.TrustedCounters {
			key := ctrKey{sr, name}
			if prev, ok := a.ctrMax[key]; ok && val < prev {
				flag(Violation{
					Rule:  RuleCounterRegression,
					Shard: st.Shard,
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
		if prev, ok := a.execMax[sr]; ok && st.ExecCount < prev {
			flag(Violation{
				Rule:  RuleExecRegression,
				Shard: st.Shard,
				Detail: fmt.Sprintf("replica %d exec watermark regressed %d -> %d",
					st.Replica, prev, st.ExecCount),
				Evidence: evidence(map[string]any{
					"replica": st.Replica, "previous": prev, "current": st.ExecCount,
				}),
			})
		}
		if st.ExecCount > a.execMax[sr] {
			a.execMax[sr] = st.ExecCount
		}

		// Rule: at most one lease holder per (shard, term). Holders other
		// than the first seen for a term break leased-read linearizability.
		if l := st.Lease; l != nil {
			key := leaseKey{st.Shard, l.Term}
			if prev, ok := a.leases[key]; ok && prev != l.Holder {
				flag(Violation{
					Rule:  RuleLeaseConflict,
					Shard: st.Shard,
					Detail: fmt.Sprintf("term %d has two lease holders: %d and %d",
						l.Term, prev, l.Holder),
					Evidence: evidence(map[string]any{
						"term": l.Term, "holders": []int{prev, l.Holder},
					}),
				})
			} else if !ok {
				a.leases[key] = l.Holder
			}
			g.health.LeaseHolders = append(g.health.LeaseHolders, l.Holder)
		}
	}

	// Rule: executed ≤ proposed, deferred one scrape (see soundness notes).
	for shard, g := range byShard {
		if prevWM, ok := a.prevExec[shard]; ok && g.health.Stale == 0 && prevWM > g.proposed {
			flag(Violation{
				Rule:  RuleExecExceedsProposed,
				Shard: shard,
				Detail: fmt.Sprintf("group executed %d batches by the previous scrape but only %d were ever proposed",
					prevWM, g.proposed),
				Evidence: evidence(map[string]any{
					"executed_watermark": prevWM, "proposed_total": g.proposed,
				}),
			})
		}
	}

	// Health finalization + cross-scrape deltas.
	for shard, g := range byShard {
		if g.seenExec {
			g.health.LagSpread = g.health.MaxExec - g.health.MinExec
			if prev, ok := a.prevExec[shard]; ok && g.health.MaxExec > prev {
				g.health.ExecDelta = g.health.MaxExec - prev
			}
			a.prevExec[shard] = g.health.MaxExec
		}
		g.health.ViewFlaps = a.viewFlaps[shard]
		sort.Ints(g.health.NotReady)
		sort.Ints(g.health.LeaseHolders)
		groups[shard] = g.health
	}

	a.prune()

	if len(out) > 0 {
		a.mu.Lock()
		a.all = append(a.all, out...)
		a.mu.Unlock()
	}
	return out
}

// ckptViolation assembles a checkpoint-divergence violation for key: every
// claim visible for that (shard, count) — this scrape's plus the recorded
// one — goes into the evidence. Blame needs f+1 claims agreeing on one
// digest: at most f replicas lie, so such a digest is vouched for by an
// honest replica, and the replicas departing from it diverge. Without one
// (two claims of a three-replica group, say, one replica lagging) the
// violation stands but its blame list is empty — the statuses alone cannot
// say who lied (DESIGN.md §10). f comes from the group's size in this scrape
// and its protocol.
func (a *auditor) ckptViolation(key ckptKey, prev ckptClaim, statuses []obs.Status) Violation {
	claims := []ckptClaim{prev}
	n, protocol := 0, ""
	for _, st := range statuses {
		if st.Shard != key.shard {
			continue
		}
		n, protocol = n+1, st.Protocol
		if st.Stale || st.Checkpoint == nil || st.Checkpoint.Count != key.count || st.Replica == prev.replica {
			continue
		}
		claims = append(claims, ckptClaim{digest: st.Checkpoint.Digest, replica: st.Replica})
	}
	f := faultBound(protocol, n)
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
		key.count, diverging, f+1)
	if agreed == "" {
		detail = fmt.Sprintf("checkpoint %d: divergence, blame undetermined (no digest has %d agreeing claims)",
			key.count, f+1)
	}
	return Violation{
		Rule:   RuleCheckpointDivergence,
		Shard:  key.shard,
		Detail: detail,
		Evidence: evidence(map[string]any{
			"checkpoint_count": key.count,
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

// prune drops checkpoint-digest history far below each shard's newest
// checkpoint so unbounded soaks keep bounded audit state.
func (a *auditor) prune() {
	for key := range a.ckpts {
		if max := a.ckptMax[key.shard]; max > ckptKeep && key.count < max-ckptKeep {
			delete(a.ckpts, key)
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
