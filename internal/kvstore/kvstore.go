// Package kvstore is the replicated application used by the examples and
// benchmarks: a deterministic key-value store implementing smr.StateMachine,
// with a typed command encoding and a typed client wrapper over smr.Client.
package kvstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"unidir/internal/smr"
	"unidir/internal/wire"
)

// Command opcodes.
const (
	opGet byte = iota + 1
	opPut
	opDel
)

// Results begin with a status byte.
const (
	statusOK       byte = 0
	statusNotFound byte = 1
	statusBadCmd   byte = 2
)

// The status-only results, shared by every command that returns one. A
// result is read-only (replicas encode it into reply frames and cache it),
// and at capacity 1 an append to one copies.
var (
	resultOK       = []byte{statusOK}
	resultNotFound = []byte{statusNotFound}
	resultBadCmd   = []byte{statusBadCmd}
)

// ErrNotFound reports a Get/Del of a missing key.
var ErrNotFound = errors.New("kvstore: key not found")

// Store is a deterministic in-memory key-value state machine. It is not
// concurrency-safe by design: replicas apply commands from one goroutine
// (see smr.StateMachine). It owns every stored value: nothing it returns
// aliases one, so a PUT may overwrite a value's bytes in place.
type Store struct {
	data map[string][]byte
}

var (
	_ smr.Snapshotter = (*Store)(nil)
	_ smr.Querier     = (*Store)(nil)
)

// New returns an empty store.
func New() *Store {
	return &Store{data: make(map[string][]byte)}
}

// Len returns the number of keys.
func (s *Store) Len() int { return len(s.data) }

// maxSnapshotKeys bounds decoded snapshots (defensive).
const maxSnapshotKeys = 1 << 24

// Snapshot returns a deterministic encoding of the full store: keys in
// sorted order, so replicas that applied the same command sequence produce
// byte-identical snapshots (checkpoint certificates vote on the digest).
func (s *Store) Snapshot() []byte {
	keys := make([]string, 0, len(s.data))
	size := 16
	for k, v := range s.data {
		keys = append(keys, k)
		size += 16 + len(k) + len(v)
	}
	sort.Strings(keys)
	e := wire.NewEncoder(size)
	e.Int(len(keys))
	for _, k := range keys {
		e.String(k)
		e.BytesField(s.data[k])
	}
	return e.Bytes()
}

// Restore replaces the store's contents with a previously snapshotted state.
func (s *Store) Restore(snap []byte) error {
	d := wire.NewDecoder(snap)
	n := d.Int()
	if err := d.Err(); err != nil {
		return fmt.Errorf("kvstore: decode snapshot: %w", err)
	}
	if n < 0 || n > maxSnapshotKeys {
		return fmt.Errorf("kvstore: snapshot with %d keys", n)
	}
	data := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		k := d.String()
		data[k] = append([]byte(nil), d.BytesField()...)
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("kvstore: decode snapshot: %w", err)
	}
	s.data = data
	return nil
}

// Query answers a read-only command without mutating the store; it is the
// smr.Querier hook behind the leased-read fast path. Only GET is read-only:
// PUT, DEL, and malformed commands answer BadCmd (a correct client never
// routes them here, and the status is deterministic for fallback votes).
func (s *Store) Query(cmd []byte) []byte {
	d := wire.NewDecoder(cmd)
	op := d.Byte()
	key := d.BytesField()
	if op != opGet || d.Finish() != nil {
		return resultBadCmd
	}
	return s.get(key)
}

// get answers a GET: the status, then a copy of the value.
func (s *Store) get(key []byte) []byte {
	v, ok := s.data[string(key)]
	if !ok {
		return resultNotFound
	}
	return append([]byte{statusOK}, v...)
}

// Apply executes one encoded command. Malformed commands yield a BadCmd
// status deterministically (they must not crash the replica: a Byzantine
// client's garbage is ordered like any other command).
//
// cmd aliases a received frame, so nothing of it is kept: a PUT copies the
// value into the store. A PUT to an existing key that holds a value of the
// same length writes over it and allocates nothing.
func (s *Store) Apply(cmd []byte) []byte {
	d := wire.NewDecoder(cmd)
	op := d.Byte()
	key := d.BytesField()
	switch op {
	case opGet:
		if d.Finish() != nil {
			return resultBadCmd
		}
		return s.get(key)
	case opPut:
		val := d.BytesField()
		if d.Finish() != nil {
			return resultBadCmd
		}
		if old, ok := s.data[string(key)]; ok && len(old) == len(val) {
			copy(old, val)
		} else {
			s.data[string(key)] = append(old[:0], val...)
		}
		return resultOK
	case opDel:
		if d.Finish() != nil {
			return resultBadCmd
		}
		if _, ok := s.data[string(key)]; !ok {
			return resultNotFound
		}
		delete(s.data, string(key))
		return resultOK
	default:
		return resultBadCmd
	}
}

// EncodeGet builds a GET command.
func EncodeGet(key string) []byte {
	e := wire.NewEncoder(8 + len(key))
	e.Byte(opGet)
	e.String(key)
	return e.Bytes()
}

// EncodePut builds a PUT command.
func EncodePut(key string, value []byte) []byte {
	return appendPut(make([]byte, 0, 16+len(key)+len(value)), key, value)
}

// appendPut appends a PUT command to b: the opcode, then the key and the
// value as wire length-prefixed fields. It appends directly rather than
// through a wire.Encoder, whose appends through a pointer would move b to the
// heap: PutAsync builds the command on the stack.
func appendPut(b []byte, key string, value []byte) []byte {
	b = append(b, opPut)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(value)))
	return append(b, value...)
}

// EncodeDel builds a DEL command.
func EncodeDel(key string) []byte {
	e := wire.NewEncoder(8 + len(key))
	e.Byte(opDel)
	e.String(key)
	return e.Bytes()
}

// Client wraps an smr.Client with typed key-value operations.
type Client struct {
	c *smr.Client
}

// NewClient wraps c.
func NewClient(c *smr.Client) *Client { return &Client{c: c} }

// Get fetches a key's value.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	res, err := c.c.Invoke(ctx, EncodeGet(key))
	if err != nil {
		return nil, err
	}
	return decodeResult(res)
}

// Put stores a key.
func (c *Client) Put(ctx context.Context, key string, value []byte) error {
	res, err := c.c.Invoke(ctx, EncodePut(key, value))
	if err != nil {
		return err
	}
	_, err = decodeResult(res)
	return err
}

// Del removes a key.
func (c *Client) Del(ctx context.Context, key string) error {
	res, err := c.c.Invoke(ctx, EncodeDel(key))
	if err != nil {
		return err
	}
	_, err = decodeResult(res)
	return err
}

// PipeClient wraps an smr.Pipeline with typed key-value operations: the
// synchronous calls mirror Client's, and PutAsync exposes the pipeline's
// windowed submission for load generators that keep many puts in flight.
type PipeClient struct {
	p *smr.Pipeline
}

// NewPipeClient wraps p.
func NewPipeClient(p *smr.Pipeline) *PipeClient { return &PipeClient{p: p} }

// PutAsync submits a PUT and returns without waiting; it blocks only while
// the pipeline's in-flight window is full. The command is built on the
// stack (a larger one on the heap) and Submit copies it into the request
// frame, so a PUT costs the frame alone; value may be reused once PutAsync
// returns.
func (c *PipeClient) PutAsync(ctx context.Context, key string, value []byte) (*smr.Call, error) {
	var buf [putStackSize]byte
	return c.p.Submit(ctx, appendPut(buf[:0], key, value))
}

// putStackSize bounds the PUT commands PutAsync builds on the stack.
const putStackSize = 256

// GetAsync submits a GET on the read fast path and returns without waiting;
// it blocks only while the pipeline's read window is full. The read is
// answered by a single leased reply from the leader or by a quorum of
// matching fallback votes (see smr/read.go).
func (c *PipeClient) GetAsync(ctx context.Context, key string) (*smr.ReadCall, error) {
	return c.p.SubmitRead(ctx, EncodeGet(key))
}

// GetFast fetches a key's value on the read fast path, waiting for the
// reply.
func (c *PipeClient) GetFast(ctx context.Context, key string) ([]byte, error) {
	res, err := c.p.InvokeRead(ctx, EncodeGet(key))
	if err != nil {
		return nil, err
	}
	return decodeResult(res)
}

// GetOrderedAsync submits a GET through the ordering path — the
// consensus-read baseline the leased fast path is measured against.
func (c *PipeClient) GetOrderedAsync(ctx context.Context, key string) (*smr.Call, error) {
	return c.p.Submit(ctx, EncodeGet(key))
}

// Window reports the pipeline's current effective in-flight window (shrinks
// under overload when AIMD adaptation is on).
func (c *PipeClient) Window() int { return c.p.Window() }

// Get fetches a key's value.
func (c *PipeClient) Get(ctx context.Context, key string) ([]byte, error) {
	res, err := c.p.Invoke(ctx, EncodeGet(key))
	if err != nil {
		return nil, err
	}
	return decodeResult(res)
}

// Put stores a key.
func (c *PipeClient) Put(ctx context.Context, key string, value []byte) error {
	res, err := c.p.Invoke(ctx, EncodePut(key, value))
	if err != nil {
		return err
	}
	_, err = decodeResult(res)
	return err
}

// Del removes a key.
func (c *PipeClient) Del(ctx context.Context, key string) error {
	res, err := c.p.Invoke(ctx, EncodeDel(key))
	if err != nil {
		return err
	}
	_, err = decodeResult(res)
	return err
}

func decodeResult(res []byte) ([]byte, error) {
	if len(res) == 0 {
		return nil, fmt.Errorf("kvstore: empty result")
	}
	switch res[0] {
	case statusOK:
		return res[1:], nil
	case statusNotFound:
		return nil, ErrNotFound
	default:
		return nil, fmt.Errorf("kvstore: malformed command")
	}
}
