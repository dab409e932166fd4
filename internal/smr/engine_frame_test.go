package smr

import (
	"bytes"
	"testing"

	"unidir/internal/obs/tracing"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// The request and reply frames: a client frame is admitted request by
// request, and an executed batch is answered with one frame per client.

// arriveFrame plays a client frame: HandleRequests, and on each admission
// what the core does. It returns the admitted requests.
func (r *rig) arriveFrame(reqs []Request, tc tracing.Context) []Request {
	var got []Request
	r.HandleRequests(EncodeRequests(reqs), tc, func(req Request) {
		got = append(got, req)
		r.MaybePropose()
	})
	return got
}

// TestEngineRepliesOneFramePerClient: a batch carrying three requests of
// client 7 and one of client 8 leaves as two frames, a batch frame to 7 (in
// batch order) and the bare reply to 8.
func TestEngineRepliesOneFramePerClient(t *testing.T) {
	r := newRig(t, EngineConfig{BatchSize: 8})
	r.core.inFlight = 1 // the valve holds the frame's requests back
	if got := r.arriveFrame([]Request{put(7, 1), put(7, 2), put(8, 1), put(7, 3)}, tracing.Context{}); len(got) != 4 {
		t.Fatalf("admitted %d of 4", len(got))
	}
	r.core.inFlight = 0
	r.MaybePropose()
	wantProposals(t, r.core, 4)
	r.commit(0)
	frames := r.net.take()
	if len(frames) != 2 {
		t.Fatalf("%d reply frames, want one per client", len(frames))
	}
	for _, f := range frames {
		reps := replies(t, []sentFrame{f})
		batched := eachBatchEntry(f.payload, func([]byte) {})
		switch f.to {
		case 7:
			if !batched || len(reps) != 3 || reps[0].Num != 1 || reps[1].Num != 2 || reps[2].Num != 3 {
				t.Fatalf("client 7 frame (batched %v): %+v", batched, reps)
			}
		case 8:
			if batched || len(reps) != 1 || reps[0].Num != 1 || string(reps[0].Result) != "c8/1" {
				t.Fatalf("client 8 frame (batched %v): %+v", batched, reps)
			}
		default:
			t.Fatalf("frame to %v", f.to)
		}
	}
}

// TestEngineReplyFramesKeepClientOrder: replies queued for interleaved
// clients leave as one frame per client, each in the order it was queued.
func TestEngineReplyFramesKeepClientOrder(t *testing.T) {
	r := newRig(t, EngineConfig{BatchSize: 8})
	r.Replay([]Request{put(8, 2), put(7, 5), put(8, 3), put(7, 6), put(8, 4)})
	frames := r.net.take()
	if len(frames) != 2 {
		t.Fatalf("%d reply frames, want one per client", len(frames))
	}
	for _, f := range frames {
		reps := replies(t, []sentFrame{f})
		want := map[types.ProcessID][]uint64{7: {5, 6}, 8: {2, 3, 4}}[f.to]
		if len(reps) != len(want) {
			t.Fatalf("client %v: %+v", f.to, reps)
		}
		for i, rep := range reps {
			if rep.Num != want[i] || rep.Client != uint64(f.to) {
				t.Fatalf("client %v: %+v, want Nums %v", f.to, reps, want)
			}
		}
	}
	if len(r.out) != 0 {
		t.Fatalf("%d replies left queued", len(r.out))
	}
}

// TestEngineFrameSheddingIsOneFrame: the replies a client frame provokes
// (a cached reply, sheds of requests that can never execute) leave as one
// frame too.
func TestEngineFrameSheddingIsOneFrame(t *testing.T) {
	r := newRig(t, EngineConfig{BatchSize: 8})
	r.arrive(put(7, 3))
	r.commit(0)
	r.net.take()
	if got := r.arriveFrame([]Request{put(7, 1), put(7, 2), put(7, 3)}, tracing.Context{}); len(got) != 0 {
		t.Fatalf("admitted %+v", got)
	}
	frames := r.net.take()
	if len(frames) != 1 {
		t.Fatalf("%d frames, want 1", len(frames))
	}
	reps := replies(t, frames)
	if len(reps) != 3 || reps[0].Code != ReplyOverloaded || reps[1].Code != ReplyOverloaded ||
		reps[2].Code != ReplyOK || string(reps[2].Result) != "c7/3" {
		t.Fatalf("replies: %+v", reps)
	}
}

// TestEngineMalformedFrameDropped: a frame that does not decode whole admits
// nothing, and neither does one above the shared cap.
func TestEngineMalformedFrameDropped(t *testing.T) {
	r := newRig(t, EngineConfig{BatchSize: 8})
	refuse := func(req Request) { t.Fatalf("admitted %+v", req) }
	body := EncodeRequests([]Request{put(7, 1), put(7, 2)})
	r.HandleRequests(body[:len(body)-1], tracing.Context{}, refuse)
	big := make([]Request, MaxFrameRequests+1)
	for i := range big {
		big[i] = put(7, uint64(i+1))
	}
	r.HandleRequests(EncodeRequests(big), tracing.Context{}, refuse)
	if r.PendingLen() != 0 || len(r.net.take()) != 0 {
		t.Fatal("a dropped frame left state or replies behind")
	}
}

// TestEngineFrameTraceBelongsToFirstRequest: the frame's trace context is
// its first request's. An unsampled request behind a sampled one in the
// same frame gets no trace record and no batch-wait span.
func TestEngineFrameTraceBelongsToFirstRequest(t *testing.T) {
	buf := tracing.NewSpanBuffer(16)
	r := newRig(t, EngineConfig{BatchSize: 8, Tracer: tracing.NewTracer("r0", 1, buf)})
	tc := tracing.Context{Trace: tracing.TraceID{9}, Span: tracing.SpanID{9}, Sampled: true}
	if got := r.arriveFrame([]Request{put(7, 1), put(7, 2)}, tc); len(got) != 2 {
		t.Fatalf("admitted %d of 2", len(got))
	}
	if _, ok := r.reqTrace[RequestID{7, 1}]; !ok || len(r.reqTrace) != 1 {
		t.Fatalf("trace records %+v, want only request 7/1", r.reqTrace)
	}
	r.commit(0) // 7/1 went out alone into the idle pipeline; 7/2 follows
	wantProposals(t, r.core, 1, 1)
	waits := 0
	for _, sp := range buf.Spans() {
		if sp.Name == "batch-wait" {
			waits++
			if sp.Trace != tc.Trace {
				t.Fatalf("batch-wait on trace %v", sp.Trace)
			}
		}
	}
	if waits != 1 {
		t.Fatalf("%d batch-wait spans, want 1", waits)
	}
}

// TestEncodeRequestsInPlace: EncodeRequests writes each request in place
// and still produces the old form — the count, then each request's own
// encoding as a byte field — byte for byte.
func TestEncodeRequestsInPlace(t *testing.T) {
	old := func(reqs []Request) []byte {
		e := wire.NewEncoder(0)
		e.Int(len(reqs))
		for _, req := range reqs {
			e.BytesField(req.Encode())
		}
		return e.Bytes()
	}
	for _, reqs := range [][]Request{
		nil,
		{{Client: 1, Num: 2}},
		{{Client: 1, Num: 1, Op: []byte("a")}, {Client: 2, Num: 7, Op: []byte{}}, {Client: 1, Num: 2, Op: bytes.Repeat([]byte("x"), 300)}},
	} {
		got := EncodeRequests(reqs)
		if want := old(reqs); !bytes.Equal(got, want) {
			t.Fatalf("EncodeRequests(%d requests) = %x, want %x", len(reqs), got, want)
		}
		if len(got) != RequestsSize(reqs) {
			t.Fatalf("RequestsSize = %d, encoding is %d bytes", RequestsSize(reqs), len(got))
		}
	}
}

// replyFrom is a reply of replica from to client 3's request num.
func replyFrom(from types.ProcessID, num uint64, code byte, result string) Reply {
	rep := Reply{Replica: from, Client: 3, Num: num, Code: code}
	if code == ReplyOK {
		rep.Result = []byte(result)
	}
	return rep
}

// TestReplyVotesOneClassPerReplica: a replica holds one vote; its OK vote
// replaces its overload vote and never the reverse.
func TestReplyVotesOneClassPerReplica(t *testing.T) {
	var vs replyVotes
	steps := []struct {
		rep  Reply
		want int
	}{
		{replyFrom(0, 1, ReplyOK, "r"), 1},
		{replyFrom(0, 1, ReplyOverloaded, ""), 0}, // late shed after its own OK: ignored
		{replyFrom(1, 1, ReplyOverloaded, ""), 1},
		{replyFrom(1, 1, ReplyOverloaded, ""), 0}, // a repeat
		{replyFrom(1, 1, ReplyOK, "r"), 2},        // OK supersedes overload
		{replyFrom(2, 1, ReplyOK, "other"), 1},
		{replyFrom(2, 1, ReplyOK, "r"), 0}, // no second OK class
	}
	for i, s := range steps {
		if got := vs.add(s.rep); got != s.want {
			t.Fatalf("step %d (%+v): class size %d, want %d", i, s.rep, got, s.want)
		}
	}
}
