// Package smr holds the pieces shared by the replicated state machine
// protocols (internal/minbft and internal/pbft): the deterministic state
// machine interface, request/reply wire formats, the per-client dedup
// table, and a retransmitting client that accepts a result once f+1
// replicas vouch for it.
package smr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"unidir/internal/transport"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// StateMachine is the deterministic application replicated by the
// protocols. Apply must be deterministic: same command sequence, same
// results. Implementations need not be concurrency-safe; replicas apply
// from a single goroutine.
type StateMachine interface {
	Apply(cmd []byte) []byte
}

// Request is a client command submitted for ordering.
type Request struct {
	Client uint64 // client identity (stable across requests)
	Num    uint64 // client-local sequence number, 1, 2, 3, ...
	Op     []byte // application command
}

// Encode returns the canonical wire form (also the form protocols sign or
// attest, so it must be deterministic).
func (r Request) Encode() []byte {
	e := wire.NewEncoder(requestHeader + len(r.Op))
	r.appendTo(e)
	return e.Bytes()
}

// requestHeader is the encoded size of a Request without its Op bytes:
// Client, Num and the Op's length prefix.
const requestHeader = 20

func (r Request) appendTo(e *wire.Encoder) {
	e.Uint64(r.Client)
	e.Uint64(r.Num)
	e.BytesField(r.Op)
}

// DecodeRequest parses a request; Op aliases b.
func DecodeRequest(b []byte) (Request, error) {
	d := wire.NewDecoder(b)
	var r Request
	r.Client = d.Uint64()
	r.Num = d.Uint64()
	r.Op = d.BytesField()
	if err := d.Finish(); err != nil {
		return Request{}, fmt.Errorf("smr: decode request: %w", err)
	}
	return r, nil
}

// MaxFrameRequests caps the requests one client frame carries. The pipeline
// cuts its frames at this count and replicas refuse a larger one, so a deep
// backlog cannot make one message arbitrarily large.
const MaxFrameRequests = 512

// EncodeRequests is the canonical wire form of a request batch: the count,
// then each request's own encoding. Both SMR protocols bind their per-slot
// consensus messages to this byte string, so one digest (and one
// attestation, in MinBFT's case) covers the whole batch. It is also the body
// of a client's request frame.
func EncodeRequests(reqs []Request) []byte {
	return AppendRequests(make([]byte, 0, RequestsSize(reqs)), reqs)
}

// RequestsSize is len(EncodeRequests(reqs)).
func RequestsSize(reqs []Request) int {
	n := 8
	for _, req := range reqs {
		n += 4 + requestHeader + len(req.Op)
	}
	return n
}

// AppendRequests appends EncodeRequests(reqs) to b, each request written in
// place behind its length prefix, so an envelope sized with RequestsSize
// takes a whole frame in one allocation.
func AppendRequests(b []byte, reqs []Request) []byte {
	e := wire.AppendTo(b)
	e.Int(len(reqs))
	for _, req := range reqs {
		e.Uint32(uint32(requestHeader + len(req.Op)))
		req.appendTo(e)
	}
	return e.Bytes()
}

// DecodeRequests parses a batch, rejecting empty batches and more than max
// entries (defensive; proposers cap batches far lower). Every Op aliases b:
// the caller keeps b, unmodified, as long as the requests.
func DecodeRequests(b []byte, max int) ([]Request, error) {
	return decodeRequests(nil, b, max)
}

// decodeRequests is DecodeRequests appending to dst; it returns nil and the
// error on a malformed batch.
func decodeRequests(dst []Request, b []byte, max int) ([]Request, error) {
	d := wire.NewDecoder(b)
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 1 || n > max {
		return nil, fmt.Errorf("smr: batch of %d requests", n)
	}
	if dst == nil {
		dst = make([]Request, 0, n)
	}
	for i := 0; i < n; i++ {
		rd := wire.NewDecoder(d.BytesField())
		req := Request{Client: rd.Uint64(), Num: rd.Uint64(), Op: rd.BytesField()}
		if err := rd.Finish(); err != nil {
			return nil, fmt.Errorf("smr: decode request: %w", err)
		}
		dst = append(dst, req)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("smr: decode batch: %w", err)
	}
	return dst, nil
}

// SortRequests orders reqs deterministically by (Client, Num) — the order
// proposers pack batches in, so identical pending sets batch identically.
func SortRequests(reqs []Request) {
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Client != reqs[j].Client {
			return reqs[i].Client < reqs[j].Client
		}
		return reqs[i].Num < reqs[j].Num
	})
}

// Reply is a replica's response to a client. Code distinguishes a committed
// result (ReplyOK) from an admission-control shed (ReplyOverloaded); clients
// treat either kind as a vote and act only on f+1 matching ones, so a single
// Byzantine replica cannot fail a request by claiming overload.
type Reply struct {
	Replica types.ProcessID
	Client  uint64
	Num     uint64
	Result  []byte
	Code    byte
}

// Encode returns the wire form.
func (r Reply) Encode() []byte {
	e := wire.NewEncoder(replyHeader + len(r.Result))
	r.appendTo(e)
	return e.Bytes()
}

// replyHeader is the encoded size of a Reply without its Result bytes.
const replyHeader = 29

func (r Reply) appendTo(e *wire.Encoder) {
	e.Int(int(r.Replica))
	e.Uint64(r.Client)
	e.Uint64(r.Num)
	e.BytesField(r.Result)
	e.Byte(r.Code)
}

// errReplyTrailing distinguishes a well-formed prefix with extra bytes — a
// ReadReply, which carries a trailing ExecSeq — from a corrupt reply. It is
// a preallocated sentinel because the pipeline client hits this path once
// per read reply (it tries DecodeReply first); formatting an error there
// measurably slows read-heavy workloads.
var errReplyTrailing = errors.New("smr: decode reply: trailing bytes")

// DecodeReply parses a reply; Result aliases b.
func DecodeReply(b []byte) (Reply, error) {
	d := wire.NewDecoder(b)
	var r Reply
	r.Replica = types.ProcessID(d.Int())
	r.Client = d.Uint64()
	r.Num = d.Uint64()
	r.Result = d.BytesField()
	r.Code = d.Byte()
	if d.Err() == nil && d.Remaining() > 0 {
		return Reply{}, errReplyTrailing
	}
	if err := d.Finish(); err != nil {
		return Reply{}, fmt.Errorf("smr: decode reply: %w", err)
	}
	return r, nil
}

// replyVote is one replica's vote on a request's outcome.
type replyVote struct {
	from   types.ProcessID
	code   byte
	result []byte
}

// replyVotes tallies the replies to one request; votes agree only when both
// the code and the result match. A replica holds one vote: a repeat changes
// nothing, and an OK vote replaces its overload vote, never the reverse. A
// replica that executed a request answers a late duplicate of it with an
// overload reply once its reply cache has moved on (Engine.HandleRequests),
// and that shed must not count against its own OK.
type replyVotes []replyVote

// add records rep and returns how many replicas now vote as rep does, or 0
// when rep changed nothing.
func (vs *replyVotes) add(rep Reply) int {
	i := slices.IndexFunc(*vs, func(v replyVote) bool { return v.from == rep.Replica })
	switch {
	case i < 0:
		*vs = append(*vs, replyVote{from: rep.Replica, code: rep.Code, result: rep.Result})
	case (*vs)[i].code == ReplyOverloaded && rep.Code != ReplyOverloaded:
		(*vs)[i] = replyVote{from: rep.Replica, code: rep.Code, result: rep.Result}
	default:
		return 0
	}
	n := 0
	for _, v := range *vs {
		if v.code == rep.Code && bytes.Equal(v.result, rep.Result) {
			n++
		}
	}
	return n
}

// ClientTable dedups request execution per client and caches the last
// reply, as in PBFT/MinBFT: a request is executed at most once even if it
// is re-ordered after a view change; retransmissions get the cached reply.
type ClientTable struct {
	last map[uint64]uint64 // client -> highest executed Num
	res  map[uint64][]byte // client -> cached last result
}

// NewClientTable returns an empty table.
func NewClientTable() *ClientTable {
	return &ClientTable{last: make(map[uint64]uint64), res: make(map[uint64][]byte)}
}

// ShouldExecute reports whether the request is new for its client.
func (t *ClientTable) ShouldExecute(r Request) bool { return r.Num > t.last[r.Client] }

// Executed records the result of executing r.
func (t *ClientTable) Executed(r Request, result []byte) {
	t.last[r.Client] = r.Num
	t.res[r.Client] = result
}

// CachedReply returns the cached result for a retransmitted request, if it
// is exactly the client's last executed one.
func (t *ClientTable) CachedReply(r Request) ([]byte, bool) {
	if t.last[r.Client] == r.Num {
		return t.res[r.Client], true
	}
	return nil, false
}

// ErrClientClosed reports use of a closed client.
var ErrClientClosed = errors.New("smr: client closed")

// Client submits requests to a replica group and waits for matching replies
// from `need` distinct replicas (f+1 in both protocols: at least one is
// correct and vouches for the committed result). It retransmits to all
// replicas on a timer until satisfied. Safe for use from one goroutine.
type Client struct {
	tr       transport.Transport
	replicas []types.ProcessID
	need     int
	id       uint64
	retry    time.Duration
	encode   func([]Request) []byte

	mu      sync.Mutex
	nextNum uint64
	closed  bool
}

// ClientOption configures NewClient.
type ClientOption func(*Client)

// WithRequestEncoder sets the protocol-specific request envelope encoder
// (for example minbft.EncodeRequestEnvelope or pbft.EncodeRequestEnvelope).
// The default sends the bare EncodeRequests body.
func WithRequestEncoder(encode func([]Request) []byte) ClientOption {
	return func(c *Client) { c.encode = encode }
}

// NewClient creates a client with the given unique identity. need is the
// number of matching replies required (use f+1).
func NewClient(tr transport.Transport, replicas []types.ProcessID, need int, id uint64, retry time.Duration, opts ...ClientOption) (*Client, error) {
	if need < 1 || need > len(replicas) {
		return nil, fmt.Errorf("smr: need %d of %d replicas", need, len(replicas))
	}
	if retry <= 0 {
		retry = 50 * time.Millisecond
	}
	c := &Client{tr: tr, replicas: replicas, need: need, id: id, retry: retry,
		encode: EncodeRequests}
	// Start request numbers from the wall clock so that a restarted client
	// process reusing the same identity stays monotonic with respect to the
	// replicas' dedup tables (the standard PBFT timestamp trick). Within
	// one process, numbers are strictly increasing regardless.
	c.nextNum = uint64(time.Now().UnixNano())
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Invoke submits op and blocks until `need` replicas report the same
// result, retransmitting as needed. It returns the agreed result.
func (c *Client) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.nextNum++
	req := Request{Client: c.id, Num: c.nextNum, Op: op}
	c.mu.Unlock()

	payload := c.encode([]Request{req})
	send := func() error {
		return transport.Broadcast(c.tr, c.replicas, payload)
	}
	if err := send(); err != nil {
		return nil, fmt.Errorf("smr: send request: %w", err)
	}

	var votes replyVotes
	timer := time.NewTimer(c.retry)
	defer timer.Stop()
	for {
		recvCtx, cancel := context.WithCancel(ctx)
		go func() {
			select {
			case <-timer.C:
				cancel()
			case <-recvCtx.Done():
			}
		}()
		env, err := c.tr.Recv(recvCtx)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Retransmission timer fired.
			if err := send(); err != nil {
				return nil, fmt.Errorf("smr: retransmit: %w", err)
			}
			timer.Reset(c.retry)
			continue
		}
		// Our reply may share a batch frame with replies to our earlier
		// requests (a view change replays several batches at once).
		var agreed *Reply
		vote := func(b []byte) {
			rep, err := DecodeReply(b)
			if err != nil || rep.Client != c.id || rep.Num != req.Num || rep.Replica != env.From {
				return
			}
			if votes.add(rep) >= c.need {
				agreed = &rep
			}
		}
		if !eachBatchEntry(env.Payload, vote) {
			vote(env.Payload)
		}
		if agreed == nil {
			continue
		}
		if agreed.Code == ReplyOverloaded {
			return nil, fmt.Errorf("smr: request %d shed by %d replicas: %w", req.Num, c.need, ErrOverloaded)
		}
		return agreed.Result, nil
	}
}

// Close marks the client closed. The underlying transport is not closed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// ExecutionLog records the command sequence a replica applied, for
// cross-replica consistency checks in tests.
type ExecutionLog struct {
	mu   sync.Mutex
	cmds [][]byte
}

// Record appends one applied command.
func (l *ExecutionLog) Record(cmd []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cmds = append(l.cmds, append([]byte(nil), cmd...))
}

// Snapshot returns a copy of the applied sequence.
func (l *ExecutionLog) Snapshot() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]byte, len(l.cmds))
	for i, c := range l.cmds {
		out[i] = append([]byte(nil), c...)
	}
	return out
}

// CheckPrefix verifies that one execution log is a prefix of the other —
// the linearizability skeleton every SMR protocol must provide.
func CheckPrefix(a, b [][]byte) error {
	short, long := a, b
	if len(short) > len(long) {
		short, long = long, short
	}
	for i := range short {
		if !bytes.Equal(short[i], long[i]) {
			return fmt.Errorf("smr: execution logs diverge at index %d: %q vs %q", i, short[i], long[i])
		}
	}
	return nil
}
