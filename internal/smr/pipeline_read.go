package smr

// The pipeline's read fast path. SubmitRead sends a ReadRequest to the
// leader hint only — two messages per read when the leader holds a lease —
// and escalates to a full broadcast the moment any replica answers with a
// fallback vote (no lease; the read must gather p.readNeed matching
// (code, execSeq, result) votes instead). A ReadLeased reply completes the
// read by itself, but only when it comes from the replica the read was
// actually sent to: a leased reply from anyone else is demoted to a single
// unverified fallback vote, or one Byzantine replica could answer broadcast
// reads with arbitrary results and capture the leader hint for every read
// after (DESIGN.md §8).

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unidir/internal/syncx"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// ReadCall is one in-flight fast-path read, the read analogue of Call.
type ReadCall struct {
	req    ReadRequest
	done   chan struct{}
	result []byte
	err    error
}

// Done is closed when the read completes (result or error).
func (c *ReadCall) Done() <-chan struct{} { return c.done }

// Result blocks until the read completes and returns its outcome.
func (c *ReadCall) Result() ([]byte, error) {
	<-c.done
	return c.result, c.err
}

// Request returns the read request this call submitted.
func (c *ReadCall) Request() ReadRequest { return c.req }

// readCall is the pipeline's internal state for one in-flight read.
type readCall struct {
	call *ReadCall
	// payload is the enveloped single-read wire form, built on first
	// resend or broadcast (the common leased path never needs it).
	payload []byte
	votes   map[string]map[types.ProcessID]bool
	voters  map[types.ProcessID]bool // distinct replicas that voted fallback
	// maxSeq is the freshest executed watermark any vote has carried; only
	// a vote class at this watermark may win (see handleReadReply).
	maxSeq uint64
	// sentTo is the replica the first copy was aimed at (valid once sent
	// flips) — the only replica whose ReadLeased reply is authoritative.
	sentTo types.ProcessID
	sent   bool
	// broadcasted flips when the read goes from leader-hint-only to
	// all-replicas (first fallback vote, or a retransmit tick).
	broadcasted bool
	// ordered flips when the read is handed to the ordering path; a late
	// vote quorum may still complete it first, but no more resends happen.
	ordered bool
	leased  bool // completed by a leased reply (for metrics)
	start   time.Time
}

// SubmitRead sends a read-only op off the ordering path and returns without
// waiting. It blocks only while the read window is full, with the same
// submit-timeout escape hatch as Submit.
func (p *Pipeline) SubmitRead(ctx context.Context, op []byte) (*ReadCall, error) {
	var timeout <-chan time.Time
	if p.submitTimeout > 0 {
		tm := time.NewTimer(p.submitTimeout)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case <-p.readAvail:
	case <-timeout:
		p.mxSubmitSheds.Inc()
		return nil, fmt.Errorf("smr: read window exhausted for %v: %w", p.submitTimeout, ErrOverloaded)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.ctx.Done():
		return nil, ErrClientClosed
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClientClosed
	}
	p.nextNum++
	req := ReadRequest{Client: p.id, Num: p.nextNum, Op: op}
	call := &ReadCall{req: req, done: make(chan struct{})}
	p.readInflight[req.Num] = &readCall{
		call:  call,
		votes: make(map[string]map[types.ProcessID]bool),
		start: time.Now(),
	}
	// The send loop drains everything queued since its last wakeup into one
	// frame, so under load a burst of reads costs the leader one receive
	// instead of one per read.
	p.out.Push(outItem{num: req.Num, op: op, read: true})
	p.mu.Unlock()
	p.mxReadsSubmitted.Inc()
	return call, nil
}

// sendReadFrames sends reads to the leader hint: the bare payload when a
// single read is queued (wire-identical to the unbatched path), a batch
// frame when the read window refilled faster than the last frame
// round-tripped.
func (p *Pipeline) sendReadFrames(leader types.ProcessID, reads []outItem) {
	for len(reads) > 0 {
		chunk := reads[:min(len(reads), MaxFrameRequests)]
		reads = reads[len(chunk):]
		var frame []byte
		if len(chunk) == 1 {
			frame = p.readEncode(ReadRequest{Client: p.id, Num: chunk[0].num, Op: chunk[0].op})
		} else {
			bodies := make([][]byte, len(chunk))
			for i, it := range chunk {
				bodies[i] = ReadRequest{Client: p.id, Num: it.num, Op: it.op}.Encode()
			}
			frame = p.readBatchEncode(bodies)
		}
		if err := p.tr.Send(leader, frame); err != nil {
			for _, it := range chunk {
				p.completeRead(it.num, nil, fmt.Errorf("smr: send read: %w", err))
			}
		}
	}
}

// InvokeRead submits a read and blocks until it completes.
func (p *Pipeline) InvokeRead(ctx context.Context, op []byte) ([]byte, error) {
	call, err := p.SubmitRead(ctx, op)
	if err != nil {
		return nil, err
	}
	select {
	case <-call.done:
		return call.result, call.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// handleReadReply routes one replica's answer to its in-flight read. Called
// from recvLoop.
func (p *Pipeline) handleReadReply(rep ReadReply, from types.ProcessID) {
	if rep.Client != p.id || rep.Replica != from {
		return
	}
	p.mu.Lock()
	rc := p.readInflight[rep.Num]
	if rc == nil {
		p.mu.Unlock()
		return
	}
	if rep.Code == ReadLeased {
		if rc.sent && from == rc.sentTo {
			// The targeted replica's leased answer is authoritative (the
			// trusted-leaseholder assumption, DESIGN.md §8); remember who
			// holds the lease so the next read goes straight there.
			rc.leased = true
			p.leaderHint = from
			p.mu.Unlock()
			// Result aliases the reply frame, which the transport never
			// reuses, so the caller may keep it.
			p.completeRead(rep.Num, rep.Result, nil)
			return
		}
		// A replica this read was never aimed at claims the lease. Trusting
		// it would let a single Byzantine replica answer broadcast reads
		// with arbitrary results and poison the leader hint for every read
		// after, so demote the reply to one unverified fallback vote.
		rep.Code = ReadFallback
	}
	if rep.ExecSeq > rc.maxSeq {
		rc.maxSeq = rep.ExecSeq
	}
	key := rep.voteKey()
	if rc.votes[key] == nil {
		rc.votes[key] = make(map[types.ProcessID]bool)
	}
	rc.votes[key][from] = true
	if rc.voters == nil {
		rc.voters = make(map[types.ProcessID]bool)
	}
	rc.voters[from] = true
	// A class wins only while it carries the freshest executed watermark
	// collected so far: on bare f+1 matching votes, one Byzantine voter
	// echoing f lagging-but-correct replicas' watermark could carry a stale
	// class past quorum even after a fresher vote exposed it. A stuck-below-
	// max class ends at the escalation below, never as a completed read.
	agreed := len(rc.votes[key]) >= p.readNeed && rep.ExecSeq >= rc.maxSeq
	widen := !rc.broadcasted && !agreed
	if widen {
		rc.broadcasted = true
		if rc.sent && from == rc.sentTo {
			// The replica this read targeted answered without a lease: move
			// the hint along so later reads probe the next replica (views
			// rotate through the replica set) instead of re-asking it.
			p.advanceHintLocked(from)
		}
	}
	// Every replica has voted and no (code, execSeq, result) class reached
	// quorum: under a live write stream the replicas' execute positions may
	// never line up, so re-asking would stall the read until the system
	// quiesces. Hand it to the ordering path instead, which always converges.
	if !agreed && !rc.ordered && len(rc.voters) >= len(p.replicas) {
		p.escalateReadLocked(rep.Num, rc)
	}
	var payload []byte
	if widen {
		payload = p.readPayloadLocked(rc)
	}
	p.mu.Unlock()
	if agreed {
		p.completeRead(rep.Num, rep.Result, nil)
		return
	}
	if widen {
		// The replica we asked has no lease: this read finishes as a quorum
		// read, so get the remaining votes moving now rather than waiting
		// for the retransmit tick.
		_ = transport.Broadcast(p.tr, p.replicas, payload)
	}
}

// escalateReadLocked resubmits a read that cannot gather matching fallback
// votes as a regular ordered request — the slow path of the slow path, and
// the only one guaranteed to converge while writes keep the replicas'
// execute positions apart. Called with p.mu held.
func (p *Pipeline) escalateReadLocked(num uint64, rc *readCall) {
	rc.ordered = true
	p.mxReadEscalations.Inc()
	go p.orderRead(num, rc.call.req.Op)
}

// orderRead drives one escalated read through the ordering path and
// completes it with the consensus result. Runs outside the mutex: Submit
// blocks on the write window, and an overloaded window is retried rather
// than failing a read the caller already holds a ReadCall for.
func (p *Pipeline) orderRead(num uint64, op []byte) {
	// One reused timer for the whole retry loop: time.After here allocated a
	// fresh runtime timer per tick, and under sustained overload (the only
	// time this loop spins) that garbage arrived exactly when the system
	// could least afford it.
	tm := syncx.NewStoppedTimer()
	for {
		call, err := p.Submit(p.ctx, op)
		if err == nil {
			res, rerr := call.Result()
			p.completeRead(num, res, rerr)
			return
		}
		if !errors.Is(err, ErrOverloaded) {
			p.completeRead(num, nil, err)
			return
		}
		if syncx.SleepTimer(p.ctx, tm, p.retry) != nil {
			p.completeRead(num, nil, ErrClientClosed)
			return
		}
	}
}

// completeRead finishes the in-flight read num, if still present, and
// returns its read-window token.
func (p *Pipeline) completeRead(num uint64, result []byte, err error) {
	p.mu.Lock()
	rc := p.readInflight[num]
	if rc == nil {
		p.mu.Unlock()
		return
	}
	delete(p.readInflight, num)
	p.mu.Unlock()
	p.mxReadsCompleted.Inc()
	if err == nil {
		if rc.leased {
			p.mxLeasedReads.Inc()
		} else {
			p.mxFallbackReads.Inc()
		}
		p.mxReadLatency.Observe(time.Since(rc.start).Seconds())
	}
	rc.call.result = result
	rc.call.err = err
	close(rc.call.done)
	p.readAvail <- struct{}{}
}

// advanceHintLocked rotates the leader hint off a replica that answered a
// targeted read without a lease (or never answered at all). Leadership
// rotates through the replica set as views advance, so probing the next
// replica converges on the actual leaseholder within one lap — without ever
// letting a replica claim the hint by merely asserting a lease. Only the
// read's own stale target rotates the hint, so a burst of concurrently
// widening reads advances it once, not once each. Caller holds p.mu.
func (p *Pipeline) advanceHintLocked(stale types.ProcessID) {
	if p.leaderHint != stale {
		return
	}
	for i, id := range p.replicas {
		if id == stale {
			p.leaderHint = p.replicas[(i+1)%len(p.replicas)]
			return
		}
	}
}

// readPayloadLocked returns rc's enveloped single-read wire form, building
// and caching it on first use. Caller holds p.mu.
func (p *Pipeline) readPayloadLocked(rc *readCall) []byte {
	if rc.payload == nil {
		rc.payload = p.readEncode(rc.call.req)
	}
	return rc.payload
}
