package smr

import (
	"context"
	"fmt"
	"testing"
	"time"

	"unidir/internal/obs"
	"unidir/internal/obs/tracing"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// The engine against a scripted ordering core, a recording transport and the
// hand-advanced clock of deadlines_test.go: no cluster, no goroutines, no
// sleeps. The test plays the core's and the loop's part — it calls
// MaybePropose after an admission, timerFired when it decides the armed
// timer is due, and Execute/AfterExecute when it decides a batch has
// committed.

const us = time.Microsecond

// fakeCore is a scripted Orderer.
type fakeCore struct {
	eng       *Engine
	leading   bool
	refuse    bool            // Propose fails, as when the USIG refuses to attest
	inFlight  int             // bumped by Propose, lowered by rig.commit
	proposals [][]Request     // what Propose was handed
	armed     []time.Duration // every engine timer armed

	proposed, executed, execSeq uint64 // ReadPoint's answer

	voted   []uint64      // every VoteCheckpoint position
	stables []stableEvent // every CheckpointStable call
}

type stableEvent struct {
	prev, cert CkptCert
	installed  bool
}

// VoteCheckpoint's proof is the voter's name; VerifyCheckpoint accepts
// exactly the proofs that name their sender.
func (c *fakeCore) VoteCheckpoint(count uint64, _ [32]byte) ([]byte, bool) {
	c.voted = append(c.voted, count)
	return proof(0), true
}

func (c *fakeCore) VerifyCheckpoint(cert CkptCert) error {
	for _, v := range cert.Votes {
		if string(v.Proof) != string(proof(v.Sender)) {
			return fmt.Errorf("bad proof from %v", v.Sender)
		}
	}
	return nil
}

func proof(p types.ProcessID) []byte { return []byte(fmt.Sprintf("vote of p%d", p)) }

// FrameState prefixes 'R' to a response body, 'F' to a fetch.
func (c *fakeCore) FrameState(resp bool, body []byte) []byte {
	if resp {
		return append([]byte{'R'}, body...)
	}
	return append([]byte{'F'}, body...)
}

func (c *fakeCore) CheckpointStable(prev, cert CkptCert, installed bool) {
	c.stables = append(c.stables, stableEvent{prev, cert, installed})
}

func (c *fakeCore) Leading() bool { return c.leading }
func (c *fakeCore) InFlight() int { return c.inFlight }

func (c *fakeCore) Propose(batch []Request) bool {
	c.eng.StartProposeSpan(batch).End()
	if c.refuse {
		return false
	}
	c.proposals = append(c.proposals, batch)
	c.inFlight++
	c.proposed++
	return true
}

func (c *fakeCore) ReadPoint() (proposed, executed, execSeq uint64) {
	return c.proposed, c.executed, c.execSeq
}

// fakeNet records what the engine sends. It is not a QueueDepther.
type fakeNet struct {
	sent  []sentFrame
	quiet bool // count only (the allocation guards)
	count int
}

type sentFrame struct {
	to      types.ProcessID
	payload []byte
}

func (n *fakeNet) Self() types.ProcessID { return 0 }
func (n *fakeNet) Close() error          { return nil }

func (n *fakeNet) Send(to types.ProcessID, payload []byte) error {
	n.count++
	if !n.quiet {
		n.sent = append(n.sent, sentFrame{to, payload})
	}
	return nil
}

func (n *fakeNet) Recv(ctx context.Context) (transport.Envelope, error) {
	<-ctx.Done()
	return transport.Envelope{}, ctx.Err()
}

// take returns the frames sent since the last take.
func (n *fakeNet) take() []sentFrame {
	out := n.sent
	n.sent = nil
	return out
}

// deepNet is a fakeNet whose per-peer send-queue depths the test sets.
type deepNet struct {
	fakeNet
	depth map[types.ProcessID]int
}

func (n *deepNet) QueueDepth(to types.ProcessID) int { return n.depth[to] }

// fakeSM echoes: Apply and Query return the command. It snapshots.
type fakeSM struct{ applied int }

func (s *fakeSM) Apply(cmd []byte) []byte { s.applied++; return cmd }
func (s *fakeSM) Query(cmd []byte) []byte { return cmd }
func (s *fakeSM) Snapshot() []byte        { return []byte{byte(s.applied)} }
func (s *fakeSM) Restore(b []byte) error  { s.applied = int(b[0]); return nil }

// rig is replica 0 of a group of three: pacing waits on one peer, a lease
// takes all three grants, a checkpoint certificate two votes.
type rig struct {
	*Engine
	t     *testing.T
	core  *fakeCore
	net   *fakeNet
	clock *fakeClock
	sm    *fakeSM
	reg   *obs.Registry
}

func newRig(t *testing.T, cfg EngineConfig) *rig {
	net := &fakeNet{}
	return newRigOn(t, net, net, "", cfg)
}

// newDeepRig is newRig over a transport that reports send-queue depths.
func newDeepRig(t *testing.T, net *deepNet, cfg EngineConfig) *rig {
	return newRigOn(t, net, &net.fakeNet, "", cfg)
}

// newRigOn builds the rig over tr, which records into net, keeping its
// checkpoint file in dir ("": none).
func newRigOn(t *testing.T, tr transport.Transport, net *fakeNet, dir string, cfg EngineConfig) *rig {
	r := &rig{t: t, core: &fakeCore{leading: true}, net: net, clock: newFakeClock(), sm: &fakeSM{}, reg: obs.NewRegistry()}
	cfg.Metrics = r.reg
	r.Engine = NewEngine("x", r.core, tr, r.sm, r.clock, []types.ProcessID{1, 2}, 1, 3, 2, dir, cfg)
	r.core.eng = r.Engine
	r.armTimer = func(d time.Duration) { r.core.armed = append(r.core.armed, d) }
	return r
}

func put(client, num uint64) Request {
	return Request{Client: client, Num: num, Op: []byte(fmt.Sprintf("c%d/%d", client, num))}
}

// handle plays a client frame carrying req alone, without the core's part;
// it reports whether req was admitted.
func (r *rig) handle(req Request, tc tracing.Context) bool {
	ok := false
	r.HandleRequests(EncodeRequests([]Request{req}), tc, func(Request) { ok = true })
	return ok
}

// arrive plays a client frame carrying req alone, and what the core does on
// an admission. It reports whether the request was admitted.
func (r *rig) arrive(req Request) bool {
	ok := r.handle(req, tracing.Context{})
	if ok {
		r.MaybePropose()
	}
	return ok
}

// commit plays the commit of proposal i: the core executes it.
func (r *rig) commit(i int) {
	r.core.inFlight--
	r.core.executed++
	r.core.execSeq++
	r.Execute(r.core.proposals[i], &BatchTrace{})
	r.AfterExecute()
}

func (r *rig) counter(suffix string) uint64 {
	return r.reg.Snapshot().CounterSum("x_" + suffix)
}

// replies decodes the write replies among frames, bare or batched.
func replies(t *testing.T, frames []sentFrame) []Reply {
	t.Helper()
	var out []Reply
	for _, f := range frames {
		one := func(b []byte) {
			rep, err := DecodeReply(b)
			if err != nil {
				t.Fatalf("frame to %v is not a Reply: %v", f.to, err)
			}
			if types.ProcessID(rep.Client) != f.to {
				t.Fatalf("reply for client %d sent to %v", rep.Client, f.to)
			}
			out = append(out, rep)
		}
		if !eachBatchEntry(f.payload, one) {
			one(f.payload)
		}
	}
	return out
}

func wantProposals(t *testing.T, c *fakeCore, want ...int) {
	t.Helper()
	if len(c.proposals) != len(want) {
		t.Fatalf("%d proposals, want %d (%v)", len(c.proposals), len(want), want)
	}
	for i, n := range want {
		if len(c.proposals[i]) != n {
			t.Fatalf("proposal %d carries %d requests, want %d", i, len(c.proposals[i]), n)
		}
	}
}

// --- the valve ---

func TestEngineCutsOnIdlePipeline(t *testing.T) {
	r := newRig(t, EngineConfig{BatchSize: 8})
	if !r.arrive(put(7, 1)) {
		t.Fatal("request not admitted")
	}
	// Nothing in flight: holding the request back buys no amortization.
	wantProposals(t, r.core, 1)
	if len(r.core.armed) != 0 {
		t.Fatalf("armed a batch timer with an idle pipeline: %v", r.core.armed)
	}
	r.commit(0)
	reps := replies(t, r.net.take())
	if len(reps) != 1 || reps[0].Num != 1 || string(reps[0].Result) != "c7/1" || reps[0].Code != ReplyOK {
		t.Fatalf("replies after execute: %+v", reps)
	}
	if r.PendingLen() != 0 || len(r.proposed) != 0 {
		t.Fatalf("executed request still held: %d pending, %d proposed", r.PendingLen(), len(r.proposed))
	}
}

func TestEnginePipelineDepthGate(t *testing.T) {
	r := newRig(t, EngineConfig{BatchSize: 8})
	r.core.inFlight = pipelineDepth
	for i := uint64(1); i <= 8; i++ {
		r.arrive(put(7, i))
	}
	// A full batch is waiting, and still nothing goes out: two are in flight.
	wantProposals(t, r.core)
	r.core.inFlight = pipelineDepth - 1
	r.AfterExecute()
	wantProposals(t, r.core, 8)
}

// While a batch is in flight, arrivals accumulate and go out together when it
// executes; only a full batch takes the second slot.
func TestEngineBatchesWhilePipelineBusy(t *testing.T) {
	r := newRig(t, EngineConfig{BatchSize: 8})
	r.arrive(put(7, 1))
	wantProposals(t, r.core, 1)
	for num := uint64(2); num <= 6; num++ {
		r.arrive(put(7, num))
	}
	wantProposals(t, r.core, 1)
	if len(r.core.armed) != 0 {
		t.Fatalf("held arrivals armed timers: %v", r.core.armed)
	}
	r.clock.Advance(300 * us)
	r.commit(0)
	wantProposals(t, r.core, 1, 5)
	if got := r.reg.Snapshot().HistogramCount("x_batch_wait_seconds"); got != 2 {
		t.Fatalf("batch_wait observations = %d, want one per proposal", got)
	}

	// A burst behind the busy pipeline, from two clients: seven are held,
	// the eighth fills a batch, which takes the second slot.
	for num := uint64(1); num <= 4; num++ {
		r.arrive(put(9, num))
		r.arrive(put(8, num))
	}
	wantProposals(t, r.core, 1, 5, 8)
	for i, req := range r.core.proposals[2] {
		if want := (RequestID{8 + uint64(i/4), uint64(i%4 + 1)}); req.ID() != want {
			t.Fatalf("batch order: %+v", r.core.proposals[2])
		}
	}
	// Another full batch waits: both slots are taken.
	for num := uint64(7); num <= 14; num++ {
		r.arrive(put(7, num))
	}
	wantProposals(t, r.core, 1, 5, 8)
	if r.core.inFlight != pipelineDepth || len(r.core.armed) != 0 {
		t.Fatalf("%d in flight, timers %v", r.core.inFlight, r.core.armed)
	}
	r.commit(1)
	wantProposals(t, r.core, 1, 5, 8, 8)
}

func TestEngineCutsAtCap(t *testing.T) {
	r := newRig(t, EngineConfig{BatchSize: 4})
	r.arrive(put(7, 1))
	wantProposals(t, r.core, 1)
	// A burst behind the busy pipeline: three of four are held...
	for num := uint64(2); num <= 4; num++ {
		r.arrive(put(7, num))
	}
	wantProposals(t, r.core, 1)
	// ...and the fourth cuts the batch without waiting for the execution.
	r.arrive(put(7, 5))
	wantProposals(t, r.core, 1, 4)
	// Requests go out in (client, num) order.
	for i, req := range r.core.proposals[1] {
		if req.Num != uint64(i+2) {
			t.Fatalf("batch order: %+v", r.core.proposals[1])
		}
	}
}

func TestEnginePacingDefersAndRearms(t *testing.T) {
	net := &deepNet{depth: map[types.ProcessID]int{1: 100, 2: 100}}
	r := newDeepRig(t, net, EngineConfig{BatchSize: 8, PaceDepth: 16})
	r.arrive(put(7, 1))
	// No peer has a short queue, and the batch needs one: deferred.
	wantProposals(t, r.core)
	if got := r.counter("paced_proposals_total"); got != 1 {
		t.Fatalf("paced_proposals_total = %d, want 1", got)
	}
	if len(r.core.armed) != 1 || r.core.armed[0] != paceRecheck {
		t.Fatalf("armed %v, want one recheck after %v", r.core.armed, paceRecheck)
	}
	r.timerFired() // still deep: deferred again, re-armed
	wantProposals(t, r.core)
	if got, timers := r.counter("paced_proposals_total"), len(r.core.armed); got != 2 || timers != 2 {
		t.Fatalf("after the recheck: paced %d times, %d timers; want 2 and 2", got, timers)
	}
	// One peer drains. The other — a dead one, say — never does; the batch
	// does not need it.
	net.depth[2] = 3
	r.timerFired()
	wantProposals(t, r.core, 1)

	// PaceDepth < 0 turns the gate off.
	off := newDeepRig(t, net, EngineConfig{PaceDepth: -1})
	net.depth[2] = 100
	off.arrive(put(7, 1))
	wantProposals(t, off.core, 1)
}

func TestEngineFailedProposeMarksNothing(t *testing.T) {
	r := newRig(t, EngineConfig{BatchSize: 8})
	r.core.refuse = true
	r.arrive(put(7, 1))
	wantProposals(t, r.core)
	if len(r.proposed) != 0 || r.counter("batches_proposed_total") != 0 {
		t.Fatalf("a refused proposal left marks: %d proposed", len(r.proposed))
	}
	if !r.Pending(RequestID{7, 1}) {
		t.Fatal("the request left pending")
	}
	r.core.refuse = false
	r.MaybePropose()
	wantProposals(t, r.core, 1)
	var st obs.Status
	r.FillStatus(&st)
	if st.ProposedBatches != 1 || st.PendingRequests != 1 || st.InFlightBatches != 1 {
		t.Fatalf("status after the retry: %+v", st)
	}
}

func TestEngineNotLeadingProposesNothing(t *testing.T) {
	r := newRig(t, EngineConfig{})
	r.core.leading = false
	if !r.arrive(put(7, 1)) {
		t.Fatal("a backup must admit (it answers for the request's liveness)")
	}
	wantProposals(t, r.core)
}

func TestEngineResetProposedRebatches(t *testing.T) {
	r := newRig(t, EngineConfig{BatchSize: 8})
	r.arrive(put(7, 1)) // proposed, in flight
	r.core.inFlight = pipelineDepth
	r.arrive(put(7, 2)) // held behind the full pipeline
	wantProposals(t, r.core, 1)
	// A view change: the old view's proposal is gone, this replica leads the
	// new view. Both requests are still pending and go out together.
	r.core.inFlight = 0
	r.ResetProposed()
	r.MaybePropose()
	wantProposals(t, r.core, 1, 2)
}

// --- intake ---

func TestEngineResendsCachedReply(t *testing.T) {
	r := newRig(t, EngineConfig{})
	r.arrive(put(7, 1))
	r.commit(0)
	r.net.take()
	if r.arrive(put(7, 1)) {
		t.Fatal("a retransmission of the executed request was admitted again")
	}
	reps := replies(t, r.net.take())
	if len(reps) != 1 || reps[0].Code != ReplyOK || string(reps[0].Result) != "c7/1" {
		t.Fatalf("retransmission answer: %+v", reps)
	}
	if r.sm.applied != 1 {
		t.Fatalf("applied %d times", r.sm.applied)
	}
}

func TestEngineStalePurge(t *testing.T) {
	r := newRig(t, EngineConfig{BatchSize: 1, Tracer: tracing.NewTracer("r0", 1, tracing.NewSpanBuffer(16))})
	sampled := tracing.Context{Trace: tracing.TraceID{1}, Span: tracing.SpanID{1}, Sampled: true}
	// Request 1 is admitted, traced and proposed; then request 2 overtakes
	// it (the core commits only the second proposal).
	if !r.handle(put(7, 1), sampled) {
		t.Fatal("request 1 not admitted")
	}
	r.MaybePropose()
	r.arrive(put(7, 2))
	wantProposals(t, r.core, 1, 1)
	r.commit(1)
	id := RequestID{7, 1}
	if !r.Pending(id) || !r.proposed[id] || len(r.reqTrace) != 1 {
		t.Fatalf("setup: pending=%v proposed=%v traced=%d", r.Pending(id), r.proposed[id], len(r.reqTrace))
	}
	r.net.take()
	// Its retransmission can never execute: purge every trace of it and tell
	// the client to stop.
	if r.arrive(put(7, 1)) {
		t.Fatal("a stale request was admitted")
	}
	if r.Pending(id) || r.proposed[id] || len(r.reqTrace) != 0 {
		t.Fatalf("stale copy survives: pending=%v proposed=%v traced=%d", r.Pending(id), r.proposed[id], len(r.reqTrace))
	}
	reps := replies(t, r.net.take())
	if len(reps) != 1 || reps[0].Code != ReplyOverloaded || reps[0].Num != 1 {
		t.Fatalf("stale answer: %+v", reps)
	}
	if got := r.counter("requests_shed_total"); got != 1 {
		t.Fatalf("requests_shed_total = %d", got)
	}
}

func TestEngineDropsDuplicate(t *testing.T) {
	r := newRig(t, EngineConfig{})
	r.core.inFlight = pipelineDepth
	if !r.arrive(put(7, 1)) || r.arrive(put(7, 1)) {
		t.Fatal("want the first copy admitted and the second dropped")
	}
	if r.PendingLen() != 1 || len(r.net.take()) != 0 {
		t.Fatal("a duplicate must be dropped silently")
	}
}

func TestEngineAdmissionShed(t *testing.T) {
	r := newRig(t, EngineConfig{Admission: &AdmissionConfig{MaxPending: 1}})
	r.core.inFlight = pipelineDepth
	r.arrive(put(7, 1))
	if r.arrive(put(8, 1)) {
		t.Fatal("admitted past MaxPending")
	}
	if r.PendingLen() != 1 || r.Pending(RequestID{8, 1}) {
		t.Fatal("a shed request entered pending")
	}
	reps := replies(t, r.net.take())
	if len(reps) != 1 || reps[0].Client != 8 || reps[0].Code != ReplyOverloaded {
		t.Fatalf("shed answer: %+v", reps)
	}
	if got := r.counter("requests_shed_total"); got != 1 {
		t.Fatalf("requests_shed_total = %d", got)
	}
}

func TestEngineReplayAndResendCached(t *testing.T) {
	r := newRig(t, EngineConfig{})
	r.core.leading = false
	r.arrive(put(7, 1))
	// A view change recovers the request outside any slot.
	r.Replay([]Request{put(7, 1)})
	if r.PendingLen() != 0 || r.sm.applied != 1 || len(replies(t, r.net.take())) != 1 {
		t.Fatal("replay must execute, reply and retire the request")
	}
	var st obs.Status
	r.FillStatus(&st)
	if st.ExecutedRequests != 0 || r.counter("batches_executed_total") != 0 {
		t.Fatalf("replay accounted as a batch: %+v", st)
	}
	if r.AnyFresh([]Request{put(7, 1)}) || !r.AnyFresh([]Request{put(7, 1), put(7, 2)}) {
		t.Fatal("AnyFresh")
	}
	// The next leader batches the retransmission with a fresh request: the
	// executed one is answered from the cache when the proposal arrives.
	r.ResendCached([]Request{put(7, 1), put(9, 1)})
	reps := replies(t, r.net.take())
	if len(reps) != 1 || reps[0].Client != 7 || string(reps[0].Result) != "c7/1" {
		t.Fatalf("resend: %+v", reps)
	}
}

func TestEngineSnapshotRestore(t *testing.T) {
	a := newRig(t, EngineConfig{})
	a.arrive(put(7, 1))
	a.commit(0)
	b := newRig(t, EngineConfig{})
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	// The client table travels with the state: b knows request 1 executed.
	if b.sm.applied != 1 || b.AnyFresh([]Request{put(7, 1)}) {
		t.Fatal("restore did not install the application state and the client table")
	}
	if err := b.Restore([]byte("garbage")); err == nil {
		t.Fatal("restored garbage")
	}
	if a.CheckpointInterval() != DefaultCheckpointInterval || a.LeaseTerm() != DefaultLeaseTerm {
		t.Fatalf("defaults in effect: ckpt %d, lease %v", a.CheckpointInterval(), a.LeaseTerm())
	}
	off := newRig(t, EngineConfig{CheckpointInterval: -1, LeaseTerm: -1})
	if off.CheckpointInterval() != 0 || off.LeaseTerm() != 0 {
		t.Fatalf("negative must turn off: ckpt %d, lease %v", off.CheckpointInterval(), off.LeaseTerm())
	}
}

// A state machine that can neither snapshot nor answer reads turns both
// features off whatever the settings say.
func TestEnginePlainStateMachine(t *testing.T) {
	type plain struct{ StateMachine }
	e := NewEngine("x", &fakeCore{}, &fakeNet{}, plain{&fakeSM{}}, newFakeClock(), nil, 0, 1, 1, "", EngineConfig{})
	if e.CheckpointInterval() != 0 || e.LeaseTerm() != 0 {
		t.Fatalf("ckpt %d, lease %v", e.CheckpointInterval(), e.LeaseTerm())
	}
}

func TestEngineConfigResolved(t *testing.T) {
	def := EngineConfig{}.Resolved()
	if def.BatchSize != 64 || def.PaceDepth != 4096 ||
		def.LeaseTerm != 250*ms || def.CheckpointInterval != 128 ||
		*def.Admission != (AdmissionConfig{MaxPending: 4096}) {
		t.Fatalf("defaults: %+v (admission %+v)", def, *def.Admission)
	}
	off := EngineConfig{BatchSize: -1, PaceDepth: -1, LeaseTerm: -1, CheckpointInterval: -1}.Resolved()
	if off.BatchSize != 1 || off.PaceDepth != 0 || off.LeaseTerm != 0 || off.CheckpointInterval != 0 {
		t.Fatalf("off: %+v", off)
	}
	admit := &AdmissionConfig{}
	set := EngineConfig{BatchSize: 1 << 20, PaceDepth: 7, LeaseTerm: time.Second, CheckpointInterval: 3, Admission: admit}.Resolved()
	if set.BatchSize != MaxBatchSize || set.PaceDepth != 7 || set.LeaseTerm != time.Second ||
		set.CheckpointInterval != 3 || set.Admission != admit {
		t.Fatalf("explicit: %+v", set)
	}
}

// --- the read server and the lease tally ---

const term = 80 * ms

func get(client, num uint64) ReadRequest {
	return ReadRequest{Client: client, Num: num, Op: []byte(fmt.Sprintf("k%d", num))}
}

// leaseRig holds a lease from the start of the clock.
func leaseRig(t *testing.T) *rig {
	r := newRig(t, EngineConfig{LeaseTerm: term})
	r.LeaseRoundStart(r.clock.Now())
	r.LeaseGrant(1)
	r.LeaseGrant(2)
	return r
}

// readReplies flushes the burst and decodes it: one frame per client, bare
// for a single reply, a batch frame for several.
func (r *rig) readReplies() map[uint64][]ReadReply {
	r.t.Helper()
	r.FlushReads()
	out := make(map[uint64][]ReadReply)
	for _, f := range r.net.take() {
		c := uint64(f.to)
		if _, dup := out[c]; dup {
			r.t.Fatalf("two read frames to client %d in one flush", c)
		}
		if batch, err := DecodeReadReplyBatch(f.payload); err == nil {
			if len(batch) < 2 {
				r.t.Fatalf("a batch frame of %d", len(batch))
			}
			out[c] = batch
			continue
		}
		rep, err := DecodeReadReply(f.payload)
		if err != nil {
			r.t.Fatalf("frame to %d: %v", c, err)
		}
		out[c] = []ReadReply{rep}
	}
	return out
}

func (r *rig) wantOneRead(code byte, execSeq uint64) {
	r.t.Helper()
	got := r.readReplies()
	if len(got) != 1 || len(got[7]) != 1 {
		r.t.Fatalf("read replies: %+v", got)
	}
	rep := got[7][0]
	if rep.Code != code || rep.ExecSeq != execSeq || rep.Replica != 0 || string(rep.Result) != fmt.Sprintf("k%d", rep.Num) {
		r.t.Fatalf("read reply %+v, want code %d at exec seq %d", rep, code, execSeq)
	}
}

func TestEngineLeaseTally(t *testing.T) {
	r := newRig(t, EngineConfig{LeaseTerm: term})
	t0 := r.clock.Now()
	r.HandleRead(get(7, 1).Encode())
	r.wantOneRead(ReadFallback, 0) // no lease yet
	r.LeaseRoundStart(t0)
	r.LeaseGrant(1)
	r.LeaseGrant(1) // a repeated grant is one grantor
	r.HandleRead(get(7, 2).Encode())
	r.wantOneRead(ReadFallback, 0) // two of three grants
	r.LeaseGrant(2)
	if want := t0.Add(term - term/8); !r.leaseUntil.Equal(want) {
		t.Fatalf("lease until %v, want sentAt + term − term/8 = %v", r.leaseUntil, want)
	}
	r.HandleRead(get(7, 3).Encode())
	r.wantOneRead(ReadLeased, 0)

	// Soliciting the next round does not invalidate the lease in hand, and
	// grants for it extend the lease only once they are a quorum again.
	r.clock.Advance(term / 2)
	t1 := r.clock.Now()
	r.LeaseRoundStart(t1)
	r.LeaseGrant(1)
	if want := t0.Add(term - term/8); !r.leaseUntil.Equal(want) {
		t.Fatalf("a new round moved the lease: until %v, want %v", r.leaseUntil, want)
	}
	r.HandleRead(get(7, 4).Encode())
	r.wantOneRead(ReadLeased, 0)
	r.LeaseGrant(2)
	if want := t1.Add(term - term/8); !r.leaseUntil.Equal(want) {
		t.Fatalf("renewed lease until %v, want %v", r.leaseUntil, want)
	}
	var st obs.Status
	st.View = 3
	r.FillStatus(&st)
	if st.Lease == nil || st.Lease.Holder != 0 || st.Lease.Term != 3 || st.Lease.ExpiresInMS != (term-term/8).Milliseconds() {
		t.Fatalf("status lease: %+v", st.Lease)
	}

	// It runs out an eighth of a term early, and only the leader holds it.
	r.clock.Advance(term - term/8)
	r.HandleRead(get(7, 5).Encode())
	r.wantOneRead(ReadFallback, 0)
	r.LeaseRoundStart(r.clock.Now())
	if got := r.counter("lease_expiries_total"); got != 1 {
		t.Fatalf("lease_expiries_total = %d, want 1 (the renewal found the lease lapsed)", got)
	}
	if got := r.counter("lease_renewals_total"); got != 3 {
		t.Fatalf("lease_renewals_total = %d, want 3", got)
	}
	r.LeaseGrant(1)
	r.LeaseGrant(2)
	r.core.leading = false
	r.HandleRead(get(7, 6).Encode())
	r.wantOneRead(ReadFallback, 0)
	if l, f := r.counter("leased_reads_total"), r.counter("fallback_reads_total"); l != 2 || f != 4 {
		t.Fatalf("leased %d fallback %d, want 2 and 4", l, f)
	}
}

func TestEngineReadWaitsForExecution(t *testing.T) {
	r := leaseRig(t)
	r.core.proposed, r.core.executed, r.core.execSeq = 5, 3, 30
	r.HandleRead(get(7, 1).Encode())
	if got := r.readReplies(); len(got) != 0 {
		t.Fatalf("answered ahead of execution: %+v", got)
	}
	var st obs.Status
	r.FillStatus(&st)
	if st.QueuedReads != 1 {
		t.Fatalf("queued reads = %d", st.QueuedReads)
	}
	r.core.executed, r.core.execSeq = 4, 31
	r.AfterExecute()
	if got := r.readReplies(); len(got) != 0 {
		t.Fatalf("answered at 4 of 5: %+v", got)
	}
	// Execution reaches where proposals stood when the read arrived; what
	// has been proposed since does not matter.
	r.core.proposed, r.core.executed, r.core.execSeq = 9, 5, 32
	r.AfterExecute()
	r.wantOneRead(ReadLeased, 32)
}

func TestEngineQueuedReadDemotedWhenLeaseLapses(t *testing.T) {
	r := leaseRig(t)
	r.core.proposed, r.core.executed = 5, 3
	r.HandleRead(get(7, 1).Encode())
	r.clock.Advance(term)
	r.core.executed = 5
	r.AfterExecute()
	r.wantOneRead(ReadFallback, 0)
}

func TestEngineReadQueueOverflow(t *testing.T) {
	r := leaseRig(t)
	r.core.proposed, r.core.executed = 5, 3
	for i := 0; i < maxReadQueue; i++ {
		r.HandleRead(get(8, uint64(i+1)).Encode())
	}
	r.HandleRead(get(7, 1).Encode())
	r.wantOneRead(ReadFallback, 0) // the queue is full: a vote, not a wait
	if len(r.leaseReads) != maxReadQueue {
		t.Fatalf("queue length %d", len(r.leaseReads))
	}
}

func TestEngineLeaseRevokeFailsQueue(t *testing.T) {
	r := leaseRig(t)
	r.core.proposed, r.core.executed, r.core.execSeq = 5, 3, 30
	r.HandleRead(get(7, 1).Encode())
	r.LeaseRevoke()
	r.wantOneRead(ReadFallback, 30)
	r.core.executed = 5
	r.HandleRead(get(7, 2).Encode())
	r.wantOneRead(ReadFallback, 30) // and the lease is gone
	r.LeaseGrant(1)                 // a straggler of the revoked round opens nothing
	r.LeaseGrant(2)
	r.HandleRead(get(7, 3).Encode())
	r.wantOneRead(ReadFallback, 30)
}

func TestEngineReadFramesPerClient(t *testing.T) {
	r := leaseRig(t)
	// One batch body from client 7, a single read from client 8, and one more
	// single from 7, all in one event burst.
	r.HandleRead(EncodeReadRequestBatch([][]byte{get(7, 1).Encode(), get(7, 2).Encode()}))
	r.HandleRead(get(8, 1).Encode())
	r.HandleRead(get(7, 3).Encode())
	r.HandleRead([]byte("garbage"))
	got := r.readReplies() // fails on two frames to one client
	if len(got) != 2 || len(got[7]) != 3 || len(got[8]) != 1 {
		t.Fatalf("frames: %+v", got)
	}
	for i, rep := range got[7] {
		if rep.Num != uint64(i+1) || rep.Code != ReadLeased {
			t.Fatalf("client 7 reply %d: %+v", i, rep)
		}
	}
	// Nothing is left for the next burst.
	if got := r.readReplies(); len(got) != 0 {
		t.Fatalf("second flush sent %+v", got)
	}
}

// --- tracing ---

// The phases of a sampled request must partition its latency: batch-wait
// ends where propose begins, commit-quorum runs from binding to execution,
// and the reply span opens only after the execute span has closed.
func TestEngineTracePhases(t *testing.T) {
	buf := tracing.NewSpanBuffer(16)
	r := newRig(t, EngineConfig{Tracer: tracing.NewTracer("r0", 1, buf)})
	tc := tracing.Context{Trace: tracing.TraceID{9}, Span: tracing.SpanID{9}, Sampled: true}
	r.handle(put(7, 1), tc)
	r.MaybePropose()
	wantProposals(t, r.core, 1)
	var bt BatchTrace
	btc := tracing.Context{Trace: tracing.TraceID{5}, Span: tracing.SpanID{5}, Sampled: true}
	r.BindBatch(&bt, btc)
	r.BindBatch(&bt, tracing.Context{Trace: tracing.TraceID{6}, Span: tracing.SpanID{6}, Sampled: true})
	if bt.Context() != btc || bt.boundAt.IsZero() {
		t.Fatalf("bound %+v at %v; a second binding must change nothing", bt.Context(), bt.boundAt)
	}
	r.Execute(r.core.proposals[0], &bt)
	if got := r.reg.Snapshot().HistogramCount("x_commit_latency_seconds"); got != 1 {
		t.Fatalf("commit latency observations = %d", got)
	}
	by := make(map[string]tracing.Span)
	for _, sp := range buf.Spans() {
		by[sp.Name] = sp
	}
	for _, name := range []string{"batch-wait", "propose", "commit-quorum", "execute", "reply"} {
		if _, ok := by[name]; !ok {
			t.Fatalf("no %s span in %v", name, by)
		}
	}
	if by["batch-wait"].Trace != tc.Trace || by["reply"].Trace != tc.Trace {
		t.Fatal("batch-wait and reply belong on the request's trace")
	}
	if by["commit-quorum"].Trace != btc.Trace || by["execute"].Trace != btc.Trace {
		t.Fatal("commit-quorum and execute belong on the batch trace")
	}
	if by["batch-wait"].End.After(by["propose"].Start) || by["reply"].Start.Before(by["execute"].End) {
		t.Fatal("phases overlap")
	}
	if len(r.reqTrace) != 0 || len(r.out) != 0 {
		t.Fatal("trace records not retired")
	}
}

// --- allocation guards ---

// The 5 % allocs_per_op bound of the benchmark is 0.75 allocations per
// operation on r-mix and 3.5 on w-sat, so one boxed key or escaped closure in
// the engine's hot paths would show. The expected counts were measured on
// the parent commit (8350ade), by running the same two sequences through
// minbft.Replica's copies of these functions (handleRequest → maybePropose →
// execute → reply with sendPrepare and the watchdog — the core's share in
// this split — stubbed out; handleReadRequest → flushReadReplies), over the
// same counting transport and echoing state machine: 9 per write, 5 per
// read. (The engine holds the peer list, so on a QueueDepther transport it
// also saves the parent's m.Others allocation per valve pass; fakeNet is not
// one, so that does not show here.)

func TestEngineWritePathAllocs(t *testing.T) {
	r := newRig(t, EngineConfig{})
	r.net.quiet = true
	// One client frame of one request each: the frame's decode buffer is
	// reused and the Op shares the frame, so the frame costs nothing over a
	// request handed over already decoded.
	bodies := make([][]byte, 202)
	for i := range bodies {
		bodies[i] = EncodeRequests([]Request{{Client: 7, Num: uint64(i + 1), Op: []byte("op")}})
	}
	next := 0
	admitted := func(Request) { r.MaybePropose() }
	var bt BatchTrace
	got := testing.AllocsPerRun(200, func() {
		r.HandleRequests(bodies[next], tracing.Context{}, admitted)
		next++
		batch := r.core.proposals[0]
		r.core.proposals = r.core.proposals[:0]
		r.core.inFlight--
		r.BindBatch(&bt, tracing.Context{})
		r.Execute(batch, &bt)
		r.AfterExecute()
	})
	// Two fewer than the parent's 8: the valve's second pass, after the
	// proposal, finds a batch in flight and no full batch behind it, and
	// returns before it builds a batch or a backlog to sort.
	const parent, want = 8, 6
	if got != want {
		t.Fatalf("request → propose → execute → reply: %v allocations, want %d (the parent's code path made %d)", got, want, parent)
	}
	if r.net.count != 201 {
		t.Fatalf("sent %d replies", r.net.count)
	}
}

func TestEngineLeasedReadAllocs(t *testing.T) {
	r := leaseRig(t)
	r.net.quiet = true
	body := get(7, 1).Encode()
	got := testing.AllocsPerRun(200, func() {
		r.HandleRead(body)
		r.FlushReads()
	})
	// One fewer than the parent's 5: the read's Op aliases the frame.
	const parent, want = 5, 4
	if got != want {
		t.Fatalf("read → leased reply: %v allocations, want %d (the parent's code path made %d)", got, want, parent)
	}
}
