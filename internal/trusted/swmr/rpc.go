package swmr

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"unidir/internal/transport"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// This file provides the RPC front end that places the shared memory on its
// own node: a Server loop owning a Store, and a Client implementing Memory
// over a transport.Transport. The caller identity used for ACL checks is the
// authenticated channel identity (Envelope.From), so a Byzantine process
// cannot write another process's object through the RPC either.

// RPC operation codes.
const (
	opAppend byte = iota + 1
	opWrite
	opRead
	opReadLog
)

// ErrClientClosed reports use of a Client after Close.
var ErrClientClosed = errors.New("swmr: client closed")

// Server serves a Store over a transport endpoint until the context is
// cancelled or the transport closes.
type Server struct {
	store *Store
	tr    transport.Transport

	cancel context.CancelFunc
	done   chan struct{}
}

// NewServer starts serving store on tr. Stop it with Close.
func NewServer(store *Store, tr transport.Transport) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{store: store, tr: tr, cancel: cancel, done: make(chan struct{})}
	go s.loop(ctx)
	return s
}

// Close stops the server loop and waits for it to exit.
func (s *Server) Close() error {
	s.cancel()
	<-s.done
	return nil
}

func (s *Server) loop(ctx context.Context) {
	defer close(s.done)
	for {
		env, err := s.tr.Recv(ctx)
		if err != nil {
			return
		}
		reply := s.handle(env.From, env.Payload)
		if reply == nil {
			continue // malformed request: drop, a Byzantine caller's problem
		}
		// Best-effort reply; a failed send is the client's timeout to handle.
		_ = s.tr.Send(env.From, reply)
	}
}

// handle decodes one request and returns the encoded reply (nil if the
// request is unparseable).
func (s *Server) handle(caller types.ProcessID, req []byte) []byte {
	d := wire.NewDecoder(req)
	op := d.Byte()
	reqID := d.Uint64()
	owner := types.ProcessID(d.Int())
	from := d.Int()
	val := d.BytesField()
	if err := d.Finish(); err != nil {
		return nil
	}

	e := wire.NewEncoder(64)
	e.Uint64(reqID)
	switch op {
	case opAppend:
		encodeStatus(e, s.store.Append(caller, owner, val))
	case opWrite:
		encodeStatus(e, s.store.Write(caller, owner, val))
	case opRead:
		v, ok, err := s.store.Read(caller, owner)
		encodeStatus(e, err)
		if err == nil {
			e.Bool(ok)
			e.BytesField(v)
		}
	case opReadLog:
		entries, err := s.store.ReadLog(caller, owner, from)
		encodeStatus(e, err)
		if err == nil {
			e.Int(len(entries))
			for _, v := range entries {
				e.BytesField(v)
			}
		}
	default:
		return nil
	}
	return e.Bytes()
}

func encodeStatus(e *wire.Encoder, err error) {
	if err == nil {
		e.Byte(0)
		return
	}
	e.Byte(1)
	// Preserve the two sentinel errors across the wire.
	switch {
	case errors.Is(err, ErrACL):
		e.String("acl")
	case errors.Is(err, ErrNoSuchObject):
		e.String("noobj")
	default:
		e.String(err.Error())
	}
}

func decodeStatus(d *wire.Decoder) error {
	if d.Byte() == 0 {
		return nil
	}
	msg := d.String()
	switch msg {
	case "acl":
		return ErrACL
	case "noobj":
		return ErrNoSuchObject
	default:
		return fmt.Errorf("swmr: remote: %s", msg)
	}
}

// Client implements Memory against a remote Server. It is safe for
// concurrent use: requests carry IDs and a background loop matches replies.
type Client struct {
	tr     transport.Transport
	server types.ProcessID

	mu      sync.Mutex
	nextID  uint64
	waiting map[uint64]chan []byte
	closed  bool

	cancel context.CancelFunc
	done   chan struct{}
}

var _ Memory = (*Client)(nil)

// NewClient connects a Memory view over tr to the server process. Stop it
// with Close.
func NewClient(tr transport.Transport, server types.ProcessID) *Client {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		tr:      tr,
		server:  server,
		waiting: make(map[uint64]chan []byte),
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	go c.recvLoop(ctx)
	return c
}

// Close stops the client; outstanding and future calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for id, ch := range c.waiting {
		close(ch)
		delete(c.waiting, id)
	}
	c.mu.Unlock()
	c.cancel()
	<-c.done
	return nil
}

// Self returns the caller identity (the endpoint's process).
func (c *Client) Self() types.ProcessID { return c.tr.Self() }

func (c *Client) recvLoop(ctx context.Context) {
	defer close(c.done)
	for {
		env, err := c.tr.Recv(ctx)
		if err != nil {
			return
		}
		if env.From != c.server {
			continue
		}
		d := wire.NewDecoder(env.Payload)
		reqID := d.Uint64()
		if d.Err() != nil {
			continue
		}
		c.mu.Lock()
		ch, ok := c.waiting[reqID]
		if ok {
			delete(c.waiting, reqID)
		}
		c.mu.Unlock()
		if ok {
			ch <- env.Payload[8:] // body after reqID
		}
	}
}

// call sends one request and blocks for the matching reply body.
func (c *Client) call(op byte, owner types.ProcessID, from int, val []byte) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.nextID++
	id := c.nextID
	ch := make(chan []byte, 1)
	c.waiting[id] = ch
	c.mu.Unlock()

	e := wire.NewEncoder(32 + len(val))
	e.Byte(op)
	e.Uint64(id)
	e.Int(int(owner))
	e.Int(from)
	e.BytesField(val)
	if err := c.tr.Send(c.server, e.Bytes()); err != nil {
		c.mu.Lock()
		delete(c.waiting, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("swmr: send request: %w", err)
	}
	body, ok := <-ch
	if !ok {
		return nil, ErrClientClosed
	}
	return body, nil
}

// Append adds val to the caller's own object on the remote store.
func (c *Client) Append(val []byte) error {
	body, err := c.call(opAppend, c.Self(), 0, val)
	if err != nil {
		return err
	}
	d := wire.NewDecoder(body)
	if err := decodeStatus(d); err != nil {
		return err
	}
	return d.Finish()
}

// Write sets the caller's own object to val on the remote store.
func (c *Client) Write(val []byte) error {
	body, err := c.call(opWrite, c.Self(), 0, val)
	if err != nil {
		return err
	}
	d := wire.NewDecoder(body)
	if err := decodeStatus(d); err != nil {
		return err
	}
	return d.Finish()
}

// Read returns the register value of owner's object from the remote store.
func (c *Client) Read(owner types.ProcessID) ([]byte, bool, error) {
	body, err := c.call(opRead, owner, 0, nil)
	if err != nil {
		return nil, false, err
	}
	d := wire.NewDecoder(body)
	if err := decodeStatus(d); err != nil {
		return nil, false, err
	}
	ok := d.Bool()
	v := append([]byte(nil), d.BytesField()...)
	if err := d.Finish(); err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	return v, true, nil
}

// ReadLog returns owner's object entries starting at offset from.
func (c *Client) ReadLog(owner types.ProcessID, from int) ([][]byte, error) {
	body, err := c.call(opReadLog, owner, from, nil)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(body)
	if err := decodeStatus(d); err != nil {
		return nil, err
	}
	n := d.Int()
	if n < 0 || d.Err() != nil {
		return nil, fmt.Errorf("swmr: malformed readlog reply")
	}
	entries := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, append([]byte(nil), d.BytesField()...))
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return entries, nil
}
