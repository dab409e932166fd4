package minbft

// Distributed tracing: the replica's side of the request lifecycle. The
// pipeline client makes the head-sampling decision and propagates a
// client-submit context with each request; here the primary records
// batch-wait (request arrival to batch formation), opens a batch trace for
// any batch carrying a sampled request (propose span with links back to the
// member requests, a ui-attest child around the USIG call), and every
// replica that sees the batch context records commit-quorum and execute.
// Replies close the loop back on the request's own trace. Without
// WithTracer — or for the unsampled majority of requests — every recording
// site below is one nil-check.

import (
	"fmt"
	"time"

	"unidir/internal/obs/tracing"
	"unidir/internal/smr"
	"unidir/internal/transport"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// WithTracer attaches a distributed tracer. Spans land in the tracer's
// SpanBuffer; the harness collector (internal/harness) merges buffers across
// replicas into per-request latency breakdowns.
func WithTracer(t *tracing.Tracer) Option {
	return func(r *Replica) { r.tracer = t }
}

// reqTraceInfo remembers a sampled request between arrival and execution:
// the propagated context (for parenting batch-wait and reply spans) and the
// arrival instant (batch-wait is backdated to it at propose time).
type reqTraceInfo struct {
	tc      tracing.Context
	arrived time.Time
}

// noteRequest records a sampled request's arrival. Every replica keeps the
// entry — backups need it for their reply spans — and execute() retires it.
func (r *Replica) noteRequest(key pendingKey, tc tracing.Context) {
	if r.tracer == nil || !tc.Sampled {
		return
	}
	r.reqTrace[key] = reqTraceInfo{tc: tc, arrived: time.Now()}
}

// startProposeSpan opens the batch trace if at least one member request is
// sampled: each sampled member gets its batch-wait span (arrival to now, on
// the request's own trace), and the returned propose span links them all.
// Returns nil — zero downstream cost — for fully unsampled batches.
func (r *Replica) startProposeSpan(batch []smr.Request) *tracing.Active {
	if r.tracer == nil {
		return nil
	}
	var infos []reqTraceInfo
	for _, req := range batch {
		if info, ok := r.reqTrace[pendingKey{req.Client, req.Num}]; ok {
			infos = append(infos, info)
		}
	}
	if len(infos) == 0 {
		return nil
	}
	// Batch-wait spans end before the propose span opens: the phases must
	// stay disjoint for the breakdown to partition client latency.
	for _, info := range infos {
		r.tracer.StartAt("batch-wait", info.tc, info.arrived).End()
	}
	span := r.tracer.Fork("propose")
	for _, info := range infos {
		span.Link(info.tc)
	}
	return span
}

// attestAndSendTraced is attestAndSend with the batch span threaded through:
// the USIG call gets a ui-attest child span, and the broadcast carries the
// batch context so backups join the batch trace. A nil span degrades to the
// plain path (zero-context sends are byte-identical to pre-tracing frames).
func (r *Replica) attestAndSendTraced(kind byte, body []byte, span *tracing.Active) (trinc.Attestation, error) {
	tc := span.Context()
	att := r.tracer.Start("ui-attest", tc)
	next := r.dev.LastAttested(usigCounter) + 1
	e := wire.GetEncoder()
	appendUIBinding(e, kind, body)
	r.mx.sigSigns.Inc()
	ui, err := r.dev.Attest(usigCounter, next, e.Bytes())
	wire.PutEncoder(e)
	att.End()
	if err != nil {
		return trinc.Attestation{}, fmt.Errorf("minbft: usig attest: %w", err)
	}
	payload := encodeEnvelope(kind, body, &ui)
	if err := transport.BroadcastTraced(r.tr, r.m.Others(r.Self()), payload, tc); err != nil {
		return trinc.Attestation{}, fmt.Errorf("minbft: broadcast: %w", err)
	}
	// Retain own sends so lagging peers can gap-fill from us directly.
	r.storeMsg(r.Self(), ui.Seq, peerMsg{kind: kind, body: body, ui: ui})
	return ui, nil
}

// bindEntryTrace attaches the batch context to a freshly bound entry and
// opens its commit-quorum span (prepare acceptance to quorum) — on the
// primary btc is the propose span's context, on backups the context that
// arrived with the PREPARE frame.
func (r *Replica) bindEntryTrace(en *entry, btc tracing.Context) {
	if r.tracer == nil || !btc.Sampled {
		return
	}
	en.btc = btc
	en.quorumSpan = r.tracer.Start("commit-quorum", btc)
}

// finishEntrySpans closes the entry's commit-quorum span and returns the
// execute span to wrap the batch's application (nil when untraced). While
// the execute span is open, traced replies are deferred (flushReplies sends
// them after it closes): the breakdown's phases must partition the
// client-observed latency, so the reply span cannot nest inside execute.
func (r *Replica) finishEntrySpans(en *entry) *tracing.Active {
	en.quorumSpan.End()
	en.quorumSpan = nil
	sp := r.tracer.Start("execute", en.btc)
	r.deferReplies = sp != nil
	return sp
}

// deferredReply is a traced reply held back until the batch's execute span
// closes.
type deferredReply struct {
	tc     tracing.Context
	req    smr.Request
	result []byte
}

// flushReplies sends the traced replies deferred during batch execution.
func (r *Replica) flushReplies() {
	r.deferReplies = false
	for _, d := range r.deferred {
		r.sendTracedReply(d)
	}
	r.deferred = r.deferred[:0]
}

// tracedReply sends the reply inside a reply span on the request's own
// trace, retiring the request's trace record.
func (r *Replica) tracedReply(key pendingKey, req smr.Request, result []byte) {
	info, ok := r.reqTrace[key]
	if !ok {
		r.reply(req, result)
		return
	}
	delete(r.reqTrace, key)
	d := deferredReply{tc: info.tc, req: req, result: result}
	if r.deferReplies {
		r.deferred = append(r.deferred, d)
		return
	}
	r.sendTracedReply(d)
}

func (r *Replica) sendTracedReply(d deferredReply) {
	sp := r.tracer.Start("reply", d.tc)
	rep := smr.Reply{Replica: r.Self(), Client: d.req.Client, Num: d.req.Num, Result: d.result}
	_ = transport.SendTraced(r.tr, types.ProcessID(d.req.Client), rep.Encode(), d.tc)
	sp.End()
}

// Ready reports whether the replica is serving normally: view-active (no
// view change in progress) and state-transfer idle. It is safe from any
// goroutine and backs the /readyz endpoint.
func (r *Replica) Ready() bool {
	return !r.rdyVC.Load() && !r.rdyST.Load()
}
