package smr

// Distributed tracing: the replica's side of the request lifecycle. The
// pipeline client makes the head-sampling decision and propagates a
// client-submit context with each request; here the leader records
// batch-wait (request arrival to batch formation) and opens a batch trace
// for any batch carrying a sampled request (a propose span with links back
// to the member requests; the core may hang its own children off it, as
// MinBFT does with ui-attest), and every replica that binds the batch
// records commit-quorum and execute. Replies close the loop back on the
// request's own trace. Without a tracer — or for the unsampled majority of
// requests — every recording site below is one nil-check.

import (
	"time"

	"unidir/internal/obs/tracing"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// BatchTrace is the engine's record on one batch of the total order, embedded
// by the cores in their per-slot state: the batch trace context with its open
// commit-quorum span, and when the batch was bound (for commit latency).
// The zero value is an untraced, untimed batch.
type BatchTrace struct {
	btc        tracing.Context // zero unless the batch is sampled
	quorumSpan *tracing.Active // open commit-quorum span; nil when untraced
	boundAt    time.Time       // zero without a metrics registry
}

// Context returns the batch trace context (zero unless the batch is sampled).
func (bt *BatchTrace) Context() tracing.Context { return bt.btc }

// reqTraceInfo remembers a sampled request between arrival and execution:
// the propagated context (for parenting batch-wait and reply spans) and the
// arrival instant (batch-wait is backdated to it at propose time).
type reqTraceInfo struct {
	tc      tracing.Context
	arrived time.Time
}

// noteRequest records a sampled request's arrival. Every replica keeps the
// entry — backups need it for their reply spans — and apply retires it.
func (e *Engine) noteRequest(id RequestID, tc tracing.Context, now time.Time) {
	if e.tracer == nil || !tc.Sampled {
		return
	}
	e.reqTrace[id] = reqTraceInfo{tc: tc, arrived: now}
}

// StartProposeSpan opens the batch trace if at least one member request is
// sampled: each sampled member gets its batch-wait span (arrival to now, on
// the request's own trace), and the returned propose span links them all.
// Returns nil — zero downstream cost — for fully unsampled batches. The core
// calls it from Propose, and Ends the span it gets (see Orderer.Propose).
func (e *Engine) StartProposeSpan(batch []Request) *tracing.Active {
	if e.tracer == nil {
		return nil
	}
	var infos []reqTraceInfo
	for _, req := range batch {
		if info, ok := e.reqTrace[req.ID()]; ok {
			infos = append(infos, info)
		}
	}
	if len(infos) == 0 {
		return nil
	}
	// Batch-wait spans end before the propose span opens: the phases must
	// stay disjoint for the breakdown to partition client latency.
	for _, info := range infos {
		e.tracer.StartAt("batch-wait", info.tc, info.arrived).End()
	}
	span := e.tracer.Fork("propose")
	for _, info := range infos {
		span.Link(info.tc)
	}
	return span
}

// BindBatch is called once a replica binds a batch to a slot of the total
// order — the leader when it has proposed it, a backup when it accepts the
// proposal: it stamps the binding time and, for a sampled batch, opens the
// commit-quorum span (binding to commit quorum). btc is the propose span's
// context on the leader, the context the proposal's frame arrived with on a
// backup. Binding an already bound batch again changes nothing.
func (e *Engine) BindBatch(bt *BatchTrace, btc tracing.Context) {
	if e.mx.commitLatency != nil && bt.boundAt.IsZero() {
		bt.boundAt = e.clock.Now()
	}
	if e.tracer == nil || !btc.Sampled || bt.btc.Sampled {
		return
	}
	bt.btc = btc
	bt.quorumSpan = e.tracer.Start("commit-quorum", btc)
}

// finishBatchSpans closes the batch's commit-quorum span and returns the
// execute span to wrap the batch's application (nil when untraced). Replies
// leave after the execute span closes (Execute's flushReplies): the
// breakdown's phases must partition the client-observed latency, so the
// reply span cannot nest inside execute.
func (e *Engine) finishBatchSpans(bt *BatchTrace) *tracing.Active {
	bt.quorumSpan.End()
	bt.quorumSpan = nil
	return e.tracer.Start("execute", bt.btc)
}

// tracedReply queues the reply and, for a sampled request, retires its
// trace record and marks the reply for a reply span.
func (e *Engine) tracedReply(id RequestID, req Request, result []byte) {
	e.reply(req, result)
	if info, ok := e.reqTrace[id]; ok {
		delete(e.reqTrace, id)
		e.out[len(e.out)-1].tc = info.tc
	}
}

// sendReplyFrame sends one client's queued replies as one frame. Each
// sampled request it answers gets a reply span, on its own trace, around
// the send, and the frame carries the first one's context.
func (e *Engine) sendReplyFrame(reps []queuedReply) {
	var frame []byte
	if len(reps) == 1 {
		frame = reps[0].Encode()
	} else {
		frame = encodeReplyBatch(reps)
	}
	var tc tracing.Context
	var spans []*tracing.Active
	for _, r := range reps {
		if r.tc.Valid() {
			if !tc.Valid() {
				tc = r.tc
			}
			spans = append(spans, e.tracer.Start("reply", r.tc))
		}
	}
	_ = transport.SendTraced(e.tr, types.ProcessID(reps[0].Client), frame, tc)
	for _, sp := range spans {
		sp.End()
	}
}
