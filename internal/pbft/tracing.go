package pbft

// Distributed tracing, mirroring internal/minbft/tracing.go: the pipeline
// client samples and propagates a client-submit context; the primary records
// batch-wait and opens the batch trace at PRE-PREPARE; every replica that
// binds a traced slot records commit-quorum (pre-prepare to commit quorum)
// and execute, and replies close the loop on the request's own trace. PBFT
// has no ui-attest span — there is no trusted-hardware call to attribute,
// which is exactly the contrast the breakdown tables surface.

import (
	"time"

	"unidir/internal/obs/tracing"
	"unidir/internal/smr"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// WithTracer attaches a distributed tracer (see minbft.WithTracer).
func WithTracer(t *tracing.Tracer) Option {
	return func(r *Replica) { r.tracer = t }
}

// reqTraceInfo remembers a sampled request between arrival and execution.
type reqTraceInfo struct {
	tc      tracing.Context
	arrived time.Time
}

// noteRequest records a sampled request's arrival (all replicas — backups
// need it for their reply spans); execute() retires the record.
func (r *Replica) noteRequest(key pendingKey, tc tracing.Context) {
	if r.tracer == nil || !tc.Sampled {
		return
	}
	r.reqTrace[key] = reqTraceInfo{tc: tc, arrived: time.Now()}
}

// startProposeSpan opens the batch trace if at least one member request is
// sampled: per-member batch-wait spans plus a propose span linking them.
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

// broadcastTraced is broadcast with a trace context on the frames; a zero
// context degrades to frames byte-identical to the untraced path.
func (r *Replica) broadcastTraced(kind byte, n types.SeqNum, payload []byte, tc tracing.Context) {
	signature := r.sign(signedBytes(kind, r.view, n, payload))
	msg := encodeMsg(kind, r.view, n, payload, signature)
	_ = transport.BroadcastTraced(r.tr, r.m.Others(r.Self()), msg, tc)
}

// bindSlotTrace attaches the batch context to a freshly bound slot and opens
// its commit-quorum span (covering both vote phases: pre-prepare acceptance
// through the 2f+1 commit quorum).
func (r *Replica) bindSlotTrace(sl *slot, btc tracing.Context) {
	if r.tracer == nil || !btc.Sampled || sl.quorumSpan != nil {
		return
	}
	sl.btc = btc
	sl.quorumSpan = r.tracer.Start("commit-quorum", btc)
}

// finishSlotSpans closes the slot's commit-quorum span and returns the
// execute span wrapping the batch's application (nil when untraced). While
// the execute span is open, traced replies are deferred (flushReplies sends
// them after it closes): the breakdown's phases must partition the
// client-observed latency, so the reply span cannot nest inside execute.
func (r *Replica) finishSlotSpans(sl *slot) *tracing.Active {
	sl.quorumSpan.End()
	sl.quorumSpan = nil
	sp := r.tracer.Start("execute", sl.btc)
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
