package smr

// The linearizable read fast path's shared pieces: a read-only request
// class (ReadRequest/ReadReply) served off the ordering path, the reply
// codes distinguishing a lease-holder answer from a quorum-read vote, the
// Querier interface a state machine implements to answer reads without
// going through Apply, and the client's UNIDIR_READ_WINDOW knob.
//
// Two ways a read completes (see DESIGN.md §8):
//
//   - Leased: the current primary holds a lease granted by a replica quorum
//     and answers locally once its execute watermark covers every request
//     admitted before the read arrived. One ReadLeased reply completes the
//     read on its own.
//   - Fallback: when no valid lease is held (view change in flight, lease
//     expired, or leases disabled) every replica answers immediately with a
//     ReadFallback reply carrying its current executed sequence number; the
//     client accepts a result once enough replicas agree on the same
//     (executed seq, value) pair — the PR 6 reply-vote machinery applied to
//     reads.

import (
	"fmt"

	"unidir/internal/obs/knob"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// Read reply codes. A fallback-coded reply is one vote in a quorum read; a
// leased-coded reply is the lease holder's authoritative answer and
// completes the read alone.
const (
	ReadFallback byte = 0
	ReadLeased   byte = 1
)

// Querier answers read-only commands against the current state without
// mutating it. Like Apply it runs on the replica's single execution
// goroutine, so implementations need not be concurrency-safe. A command
// that would mutate state must be answered with a deterministic error
// result, never applied.
type Querier interface {
	Query(cmd []byte) []byte
}

// ReadRequest is a client read submitted off the ordering path. It shares
// the request identity scheme with Request (client ID plus client-local
// number) so replies route through the same per-client matching.
type ReadRequest struct {
	Client uint64
	Num    uint64
	Op     []byte // read-only application command
}

// Encode returns the canonical wire form.
func (r ReadRequest) Encode() []byte {
	e := wire.NewEncoder(24 + len(r.Op))
	e.Uint64(r.Client)
	e.Uint64(r.Num)
	e.BytesField(r.Op)
	return e.Bytes()
}

// DecodeReadRequest parses a read request; Op aliases b.
func DecodeReadRequest(b []byte) (ReadRequest, error) {
	d := wire.NewDecoder(b)
	var r ReadRequest
	r.Client = d.Uint64()
	r.Num = d.Uint64()
	r.Op = d.BytesField()
	if err := d.Finish(); err != nil {
		return ReadRequest{}, fmt.Errorf("smr: decode read request: %w", err)
	}
	// The sentinel is reserved to open batch frames; no correct client uses
	// it as an ID, so rejecting it here makes batch/single discrimination
	// independent of which decoder a handler tries first.
	if r.Client == batchSentinel {
		return ReadRequest{}, fmt.Errorf("smr: decode read request: reserved client id")
	}
	return r, nil
}

// ReadReply is a replica's answer to a ReadRequest. ExecSeq is the
// replica's executed-sequence watermark at answer time (executed fresh
// batches in MinBFT, executed slots in PBFT — deterministic across correct
// replicas), which is what fallback votes must agree on: matching ExecSeq
// plus matching Result means the voters answered from the same state.
type ReadReply struct {
	Replica types.ProcessID
	Client  uint64
	Num     uint64
	Result  []byte
	Code    byte
	ExecSeq uint64
}

// Encode returns the wire form: a Reply's fields, then ExecSeq.
func (r ReadReply) Encode() []byte {
	e := wire.NewEncoder(41 + len(r.Result))
	e.Int(int(r.Replica))
	e.Uint64(r.Client)
	e.Uint64(r.Num)
	e.BytesField(r.Result)
	e.Byte(r.Code)
	e.Uint64(r.ExecSeq)
	return e.Bytes()
}

// DecodeReadReply parses a read reply; Result aliases b.
func DecodeReadReply(b []byte) (ReadReply, error) {
	d := wire.NewDecoder(b)
	var r ReadReply
	r.Replica = types.ProcessID(d.Int())
	r.Client = d.Uint64()
	r.Num = d.Uint64()
	r.Result = d.BytesField()
	r.Code = d.Byte()
	r.ExecSeq = d.Uint64()
	if err := d.Finish(); err != nil {
		return ReadReply{}, fmt.Errorf("smr: decode read reply: %w", err)
	}
	return r, nil
}

// voteKey groups fallback read votes: replies agree only when code,
// executed watermark, and result all match.
func (r ReadReply) voteKey() string {
	e := wire.NewEncoder(16 + len(r.Result))
	e.Byte(r.Code)
	e.Uint64(r.ExecSeq)
	e.BytesField(r.Result)
	return string(e.Bytes())
}

// DefaultReadWindow returns the pipelined client's default read window (the
// in-flight bound for SubmitRead, separate from the write window),
// controlled by the UNIDIR_READ_WINDOW environment variable:
//
//	unset / ""    -> 0 (follow the write window)
//	"off" or "0"  -> 0 (same: follow the write window)
//	integer k > 0 -> k
//
// Malformed values fall back to the default with a logged warning.
func DefaultReadWindow() int {
	return knob.Int("UNIDIR_READ_WINDOW", 0, 1,
		map[string]int{"off": 0, "0": 0})
}

// batchSentinel opens a batch frame: coalesced replies (write or read) to
// one client, or coalesced reads from one client. Every Reply and ReadReply
// begins with the sender's replica ID, which correct replicas never encode
// as -1, so the prefix cleanly separates batch frames from single replies on
// the shared client delivery path.
const batchSentinel = ^uint64(0)

// eachBatchEntry calls fn with each entry of a batch frame, up to the first
// malformed one, and reports whether b is one. The entries alias b.
func eachBatchEntry(b []byte, fn func([]byte)) bool {
	d := wire.NewDecoder(b)
	if d.Uint64() != batchSentinel || d.Err() != nil {
		return false
	}
	for n := d.Uint64(); n > 0 && d.Err() == nil; n-- {
		if entry := d.BytesField(); d.Err() == nil {
			fn(entry)
		}
	}
	return true
}

// EncodeReadReplyBatch coalesces several encoded ReadReply payloads bound
// for one client into a single transport frame. Replicas answering a burst
// of reads in one event-loop drain send one frame per client instead of
// one per read, which is most of the leased fast path's message cost at
// saturation; a burst of one is sent as the bare reply, so the low-load
// wire format is unchanged.
func EncodeReadReplyBatch(reps [][]byte) []byte {
	n := 16
	for _, r := range reps {
		n += 8 + len(r)
	}
	e := wire.NewEncoder(n)
	e.Uint64(batchSentinel)
	e.Uint64(uint64(len(reps)))
	for _, r := range reps {
		e.BytesField(r)
	}
	return e.Bytes()
}

// DecodeReadReplyBatch parses a coalesced read-reply frame, failing fast
// (one integer compare) on anything without the sentinel prefix.
func DecodeReadReplyBatch(b []byte) ([]ReadReply, error) {
	d := wire.NewDecoder(b)
	if d.Uint64() != batchSentinel || d.Err() != nil {
		return nil, fmt.Errorf("smr: not a read reply batch")
	}
	count := d.Uint64()
	// Each entry costs at least its 8-byte length prefix, so a count the
	// buffer cannot hold is malformed; checking first bounds the alloc.
	if count > uint64(d.Remaining())/8 {
		return nil, fmt.Errorf("smr: read reply batch count %d exceeds frame", count)
	}
	reps := make([]ReadReply, 0, count)
	for i := uint64(0); i < count; i++ {
		rr, err := DecodeReadReply(d.BytesField())
		if err != nil {
			return nil, fmt.Errorf("smr: read reply batch entry %d: %w", i, err)
		}
		reps = append(reps, rr)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("smr: decode read reply batch: %w", err)
	}
	return reps, nil
}

// EncodeReadRequestBatch coalesces several encoded ReadRequest payloads
// from one client into a single body, the submission-side mirror of
// EncodeReadReplyBatch: the client's read send loop packs every read
// queued while the previous frame was in flight. The sentinel occupies the
// Client field's position, and no real client encodes ID ^uint64(0), so
// replicas can discriminate batch from single read with one compare.
func EncodeReadRequestBatch(reqs [][]byte) []byte {
	n := 16
	for _, r := range reqs {
		n += 8 + len(r)
	}
	e := wire.NewEncoder(n)
	e.Uint64(batchSentinel)
	e.Uint64(uint64(len(reqs)))
	for _, r := range reqs {
		e.BytesField(r)
	}
	return e.Bytes()
}

// DecodeReadRequestBatch parses a coalesced read-request body, failing
// fast (one integer compare) on a single-read body.
func DecodeReadRequestBatch(b []byte) ([]ReadRequest, error) {
	d := wire.NewDecoder(b)
	if d.Uint64() != batchSentinel || d.Err() != nil {
		return nil, fmt.Errorf("smr: not a read request batch")
	}
	count := d.Uint64()
	if count > uint64(d.Remaining())/8 {
		return nil, fmt.Errorf("smr: read request batch count %d exceeds frame", count)
	}
	reqs := make([]ReadRequest, 0, count)
	for i := uint64(0); i < count; i++ {
		rr, err := DecodeReadRequest(d.BytesField())
		if err != nil {
			return nil, fmt.Errorf("smr: read request batch entry %d: %w", i, err)
		}
		reqs = append(reqs, rr)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("smr: decode read request batch: %w", err)
	}
	return reqs, nil
}
