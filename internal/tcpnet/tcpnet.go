// Package tcpnet implements transport.Transport over TCP, so every protocol
// in the library runs unchanged on a real network (see cmd/minbft-kv for a
// multi-process cluster demo).
//
// Semantics match simnet's asynchronous reliable channels: Send never
// blocks on the peer (each destination has an outbound queue drained by a
// writer goroutine that dials, frames, and transparently re-dials on
// failure), and Recv yields complete messages with the peer's claimed
// identity. The writer coalesces: each wakeup drains the whole outbound
// backlog through one buffered write and a single flush, and a
// per-connection write deadline (WithWriteTimeout) keeps a stalled peer
// from wedging its sender goroutine. Channel authentication is by the hello frame — a substitute
// for the mutually authenticated channels (TLS and friends) a production
// deployment would use; the simulation threat model treats transport
// identity as given, with all second-hand authentication done by
// signatures, exactly as in the paper's model.
//
// Wire format: a connection opens with a hello frame carrying the sender's
// process ID, then length-prefixed message frames (uint32 little-endian
// length, then the payload). Bit 31 of the length prefix
// (wire.FrameTraceFlag) version-gates an optional trailing trace-context
// block (tracing.ContextWireSize bytes) so sampled requests carry their
// trace across process boundaries; frames without the flag — including
// everything ever emitted before the flag existed — decode exactly as
// before.
package tcpnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"unidir/internal/obs"
	"unidir/internal/obs/tracing"
	"unidir/internal/syncx"
	"unidir/internal/transport"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// maxFrame bounds a single message (defensive). It must stay consistent
// with wire.MaxPayload — a payload the codec accepts must be framable —
// which bounds_test.go asserts.
const maxFrame = wire.MaxPayload

// defaultWriteTimeout bounds one coalesced write+flush. A peer that accepts
// but never reads would otherwise block the sender goroutine forever once
// the kernel buffers fill; on expiry the connection is dropped and redialed,
// and the undelivered frames are retried on the fresh connection.
const defaultWriteTimeout = 15 * time.Second

// defaultDialTimeout bounds one connection attempt (see WithDialTimeout).
const defaultDialTimeout = 2 * time.Second

// Config maps every process to its listen address ("host:port").
type Config map[types.ProcessID]string

// Option configures a Net.
type Option func(*Net)

// WithWriteTimeout bounds each coalesced frame write to a peer (default
// 15s). On expiry the connection is torn down and redialed with the
// unwritten frames retried, so one stalled peer cannot wedge its sender
// goroutine indefinitely. d <= 0 disables the deadline.
func WithWriteTimeout(d time.Duration) Option {
	return func(n *Net) { n.writeTimeout = d }
}

// WithDialTimeout bounds each outbound connection attempt (default 2s).
// Attempts also abort when the transport closes, whatever the timeout.
// d <= 0 restores the default.
func WithDialTimeout(d time.Duration) Option {
	return func(n *Net) {
		if d <= 0 {
			d = defaultDialTimeout
		}
		n.dialTimeout = d
	}
}

// WithMetrics publishes per-peer transport metrics into reg: frames and
// bytes written, coalesced batch sizes, outbound queue depth, dials, and
// dropped connections (write timeout or error) — write-timeout unwedges and
// queue-overflow drops under their own counters — plus a "tcpnet" trace
// ring of redial events. Without this option the instrumentation is free:
// every metric handle stays nil and each call site is a nil-check.
func WithMetrics(reg *obs.Registry) Option {
	return func(n *Net) { n.metrics = reg }
}

// WithQueueBound caps each peer's outbound queue at `frames` frames. A Send
// that would grow the queue past the bound drops the frame instead (counted
// under tcpnet_queue_dropped_frames_total) and still returns nil: the
// semantics stay "asynchronous, lossy-tolerated" — every protocol here
// retransmits and dedups — but a slow or dead peer can no longer grow the
// buffer without bound. The check is a racy snapshot, so the bound is
// approximate under concurrent senders. frames <= 0 (the default) keeps the
// queue unbounded.
func WithQueueBound(frames int) Option {
	return func(n *Net) {
		if frames < 0 {
			frames = 0
		}
		n.queueBound = frames
	}
}

// Net is one process's TCP transport endpoint.
type Net struct {
	self types.ProcessID
	cfg  Config

	writeTimeout time.Duration
	dialTimeout  time.Duration
	queueBound   int // max queued frames per peer; 0: unbounded

	metrics *obs.Registry
	trace   *obs.Trace // redial / drop events; nil without WithMetrics

	listener net.Listener
	inbox    *syncx.Queue[transport.Envelope]

	mu      sync.Mutex
	senders map[types.ProcessID]*sender
	conns   map[net.Conn]struct{}
	closed  bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

var (
	_ transport.Transport    = (*Net)(nil)
	_ transport.TraceSender  = (*Net)(nil)
	_ transport.QueueDepther = (*Net)(nil)
)

// outFrame is one queued outbound message: the payload plus the optional
// trace context that rides behind it on the wire.
type outFrame struct {
	payload []byte
	tc      tracing.Context
}

// wireSize is the frame's full on-wire size: length prefix, payload, and
// trace block when present.
func (f outFrame) wireSize() uint64 {
	n := uint64(len(f.payload)) + 4
	if f.tc.Valid() {
		n += tracing.ContextWireSize
	}
	return n
}

// appendFrame encodes one frame — length prefix (trace flag in bit 31),
// payload, optional trace block. writeBatch streams the same layout through
// its buffered writer; frame_test asserts the two stay identical.
func appendFrame(dst []byte, payload []byte, tc tracing.Context) []byte {
	traced := tc.Valid()
	dst = binary.LittleEndian.AppendUint32(dst, wire.EncodeFrameSize(len(payload), traced))
	dst = append(dst, payload...)
	if traced {
		dst = tc.AppendBinary(dst)
	}
	return dst
}

// readFrame reads one frame from br: the length prefix (validated against
// maxFrame after masking the trace flag), the payload, and — when the flag
// is set — the fixed-size trace block. The payload is the frame's one
// allocation: the length prefix and the trace block are decoded in br's
// buffer, and the payload is handed to the receiver, never reused
// (transport.Envelope).
func readFrame(br *bufio.Reader) ([]byte, tracing.Context, error) {
	hdr, err := peek(br, 4)
	if err != nil {
		return nil, tracing.Context{}, err
	}
	size, traced := wire.DecodeFrameSize(binary.LittleEndian.Uint32(hdr))
	_, _ = br.Discard(4)
	if size > maxFrame {
		return nil, tracing.Context{}, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, tracing.Context{}, err
	}
	if !traced {
		return payload, tracing.Context{}, nil
	}
	block, err := peek(br, tracing.ContextWireSize)
	if err != nil {
		return nil, tracing.Context{}, err
	}
	tc, err := tracing.DecodeContext(block)
	_, _ = br.Discard(tracing.ContextWireSize)
	if err != nil {
		return nil, tracing.Context{}, err
	}
	return payload, tc, nil
}

// peek returns the next n bytes of br, valid until br is next read, with
// io.ReadFull's errors: io.EOF when br is at its end, io.ErrUnexpectedEOF
// when it ends within the n bytes.
func peek(br *bufio.Reader, n int) ([]byte, error) {
	b, err := br.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// New starts listening on cfg[self] and returns the endpoint.
func New(self types.ProcessID, cfg Config, opts ...Option) (*Net, error) {
	addr, ok := cfg[self]
	if !ok {
		return nil, fmt.Errorf("tcpnet: no address for %v", self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Net{
		self:         self,
		cfg:          cfg,
		writeTimeout: defaultWriteTimeout,
		dialTimeout:  defaultDialTimeout,
		listener:     ln,
		inbox:        syncx.NewQueue[transport.Envelope](),
		senders:      make(map[types.ProcessID]*sender),
		conns:        make(map[net.Conn]struct{}),
		ctx:          ctx,
		cancel:       cancel,
	}
	for _, opt := range opts {
		opt(n)
	}
	n.trace = n.metrics.Trace(obs.Name("tcpnet", "self", self), 256)
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Self returns this process's ID.
func (n *Net) Self() types.ProcessID { return n.self }

// Addr returns the actual listen address (useful with ":0" configs).
func (n *Net) Addr() string { return n.listener.Addr().String() }

// Send enqueues payload for delivery to the destination process. A nil
// return means the transport accepted the message; after Close every Send
// reports transport.ErrClosed, even when it races the shutdown.
func (n *Net) Send(to types.ProcessID, payload []byte) error {
	return n.send(to, outFrame{payload: payload})
}

// SendTraced is Send with a trace context attached to the frame.
func (n *Net) SendTraced(to types.ProcessID, payload []byte, tc tracing.Context) error {
	return n.send(to, outFrame{payload: payload, tc: tc})
}

func (n *Net) send(to types.ProcessID, f outFrame) error {
	if to == n.self {
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return transport.ErrClosed
		}
		// Copy before delivery: the remote path hands the receiver a fresh
		// buffer (readLoop allocates per frame), so self-delivery must too —
		// callers reuse their encode buffers after Send returns.
		buf := append([]byte(nil), f.payload...)
		if !n.inbox.Push(transport.Envelope{From: n.self, To: n.self, Payload: buf, Trace: f.tc}) {
			return transport.ErrClosed
		}
		return nil
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return transport.ErrClosed
	}
	s := n.senders[to]
	if s == nil {
		addr, ok := n.cfg[to]
		if !ok {
			n.mu.Unlock()
			return fmt.Errorf("tcpnet: no address for %v", to)
		}
		s = newSender(n, to, addr)
		n.senders[to] = s
		n.wg.Add(1)
		go s.run()
	}
	n.mu.Unlock()
	if n.queueBound > 0 && s.queue.Len() >= n.queueBound {
		// Backpressure floor: drop rather than buffer without bound. The
		// frame is lost here exactly like on a dropped connection mid-batch;
		// the retransmission machinery above recovers.
		s.queueDrops.Inc()
		return nil
	}
	// Push reports acceptance: Close may have closed the queue between the
	// check above and here, and a dropped message must not look delivered.
	if !s.queue.Push(f) {
		return transport.ErrClosed
	}
	s.queueDepth.Set(int64(s.queue.Len()))
	return nil
}

// QueueDepth reports the number of frames currently buffered for delivery
// to one peer (0 for self or an unknown peer), implementing
// transport.QueueDepther: upper layers read it to pace proposals instead of
// letting a slow peer's queue absorb load silently. The value is a racy
// snapshot, fit for heuristics only.
func (n *Net) QueueDepth(to types.ProcessID) int {
	n.mu.Lock()
	s := n.senders[to]
	n.mu.Unlock()
	if s == nil {
		return 0
	}
	return s.queue.Len()
}

// Recv returns the next received message.
func (n *Net) Recv(ctx context.Context) (transport.Envelope, error) {
	env, err := n.inbox.Pop(ctx)
	if errors.Is(err, syncx.ErrQueueClosed) {
		return transport.Envelope{}, transport.ErrClosed
	}
	return env, err
}

// Close stops the listener, all connections, and unblocks Recv.
func (n *Net) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	for _, s := range n.senders {
		s.queue.Close()
	}
	for c := range n.conns {
		_ = c.Close()
	}
	n.mu.Unlock()
	n.cancel()
	_ = n.listener.Close()
	n.wg.Wait()
	n.inbox.Close()
	return nil
}

func (n *Net) trackConn(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Net) untrackConn(c net.Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// --- inbound ---

func (n *Net) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return
		}
		if !n.trackConn(conn) {
			_ = conn.Close()
			return
		}
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *Net) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer n.untrackConn(conn)
	defer conn.Close()

	var hello [8]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return
	}
	from := types.ProcessID(int64(binary.LittleEndian.Uint64(hello[:])))
	if _, ok := n.cfg[from]; !ok {
		return // unknown peer
	}
	var rxFrames, rxBytes *obs.Counter
	if n.metrics != nil {
		rxFrames = n.metrics.Counter(obs.Name("tcpnet_rx_frames_total", "self", n.self, "peer", from))
		rxBytes = n.metrics.Counter(obs.Name("tcpnet_rx_bytes_total", "self", n.self, "peer", from))
	}
	br := bufio.NewReaderSize(conn, senderBufSize)
	for {
		payload, tc, err := readFrame(br)
		if err != nil {
			return
		}
		rxFrames.Inc()
		rxBytes.Add(outFrame{payload: payload, tc: tc}.wireSize())
		n.inbox.Push(transport.Envelope{From: from, To: n.self, Payload: payload, Trace: tc})
	}
}

// --- outbound ---

// senderBufSize sizes the per-connection write buffer. Most protocol frames
// here are well under 4KiB, so one flush typically covers dozens of frames.
const senderBufSize = 64 << 10

// sender drains one destination's queue over a (re)dialed connection. Each
// wakeup drains the *entire* backlog (PopAllSwap, plus a TryPop sweep for
// frames that arrive while writing) through a buffered writer with a single
// flush, so under load the syscall count is per batch, not per frame.
//
// Delivery is at-least-once across reconnects: a write error mid-batch
// retries the whole batch on a fresh connection, and frames already flushed
// before the error are sent again. Every protocol in the library dedups
// (UI counter cursors, client tables, idempotent vote sets), matching the
// retransmitting clients that already re-send whole requests.
type sender struct {
	net   *Net
	to    types.ProcessID
	addr  string
	queue *syncx.Queue[outFrame]

	// Per-peer metric handles, all nil (free no-ops) without WithMetrics.
	frames     *obs.Counter
	bytes      *obs.Counter
	dials      *obs.Counter
	drops      *obs.Counter
	unwedges   *obs.Counter // conn drops caused by the write deadline expiring
	queueDrops *obs.Counter // frames dropped at the queue bound
	batchSize  *obs.Histogram
	queueDepth *obs.Gauge
}

func newSender(n *Net, to types.ProcessID, addr string) *sender {
	s := &sender{net: n, to: to, addr: addr, queue: syncx.NewQueue[outFrame]()}
	if reg := n.metrics; reg != nil {
		s.frames = reg.Counter(obs.Name("tcpnet_tx_frames_total", "self", n.self, "peer", to))
		s.bytes = reg.Counter(obs.Name("tcpnet_tx_bytes_total", "self", n.self, "peer", to))
		s.dials = reg.Counter(obs.Name("tcpnet_dials_total", "self", n.self, "peer", to))
		s.drops = reg.Counter(obs.Name("tcpnet_conn_drops_total", "self", n.self, "peer", to))
		s.unwedges = reg.Counter(obs.Name("tcpnet_write_timeout_unwedges_total", "self", n.self, "peer", to))
		s.queueDrops = reg.Counter(obs.Name("tcpnet_queue_dropped_frames_total", "self", n.self, "peer", to))
		s.batchSize = reg.Histogram(obs.Name("tcpnet_batch_frames", "self", n.self, "peer", to), obs.SizeBuckets)
		s.queueDepth = reg.Gauge(obs.Name("tcpnet_queue_depth", "self", n.self, "peer", to))
	}
	return s
}

func (s *sender) run() {
	defer s.net.wg.Done()
	var conn net.Conn
	var bw *bufio.Writer
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	drop := func(cause error) {
		_ = conn.Close()
		s.net.untrackConn(conn)
		conn, bw = nil, nil
		s.drops.Inc()
		// A deadline expiry is the stalled-peer unwedge working as designed
		// (the peer accepted but stopped reading); surface it separately
		// from ordinary connection errors.
		var ne net.Error
		if errors.As(cause, &ne) && ne.Timeout() {
			s.unwedges.Inc()
			s.net.trace.Record("write-timeout", "peer %v (%s): write deadline expired, unwedging sender", s.to, s.addr)
			return
		}
		s.net.trace.Record("conn-drop", "peer %v (%s): write failed, redialing", s.to, s.addr)
	}
	backoff := 10 * time.Millisecond
	// Reused across every redial wait: time.After in this loop allocated a
	// timer per attempt, and a sender stuck redialing a down peer ticks for
	// as long as the outage lasts.
	redial := syncx.NewStoppedTimer()
	var spare []outFrame
	for {
		// Hand the last written batch back to the queue as its buffer, so a
		// steady stream of Sends stops growing a fresh slice per wakeup.
		batch, err := s.queue.PopAllSwap(s.net.ctx, spare)
		if err != nil {
			return
		}
		for len(batch) > 0 {
			if conn == nil {
				conn, err = s.dial()
				if err != nil {
					// Jittered exponential backoff: replicas restarting
					// together (a cluster-wide crash, a rolling restart)
					// would otherwise redial a still-down peer in lockstep
					// at identical deterministic intervals.
					wait := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
					if syncx.SleepTimer(s.net.ctx, redial, wait) != nil {
						return
					}
					if backoff < time.Second {
						backoff *= 2
					}
					continue
				}
				backoff = 10 * time.Millisecond
				bw = bufio.NewWriterSize(conn, senderBufSize)
				s.dials.Inc()
				s.net.trace.Record("dial", "peer %v (%s) connected", s.to, s.addr)
			}
			// Fold in frames queued since the wakeup so the flush below
			// covers them too.
			for {
				f, ok := s.queue.TryPop()
				if !ok {
					break
				}
				batch = append(batch, f)
			}
			if err := s.writeBatch(conn, bw, batch); err != nil {
				drop(err)
				continue // re-dial and retry the batch
			}
			s.frames.Add(uint64(len(batch)))
			s.batchSize.Observe(float64(len(batch)))
			var written uint64
			for _, f := range batch {
				written += f.wireSize()
			}
			s.bytes.Add(written)
			s.queueDepth.Set(int64(s.queue.Len()))
			clear(batch)
			spare, batch = batch[:0], nil
		}
	}
}

// writeBatch frames every payload into the buffered writer and flushes
// once, under one write deadline covering the whole batch. The layout per
// frame is exactly appendFrame's: length prefix with the trace flag, the
// payload, then the trace block when one rides along.
func (s *sender) writeBatch(conn net.Conn, bw *bufio.Writer, batch []outFrame) error {
	if s.net.writeTimeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(s.net.writeTimeout)); err != nil {
			return err
		}
	}
	// The length prefix and the trace block are written into bw's own free
	// space (AvailableBuffer), so framing allocates nothing.
	for _, f := range batch {
		traced := f.tc.Valid()
		hdr := binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), wire.EncodeFrameSize(len(f.payload), traced))
		if _, err := bw.Write(hdr); err != nil {
			return err
		}
		if _, err := bw.Write(f.payload); err != nil {
			return err
		}
		if traced {
			if _, err := bw.Write(f.tc.AppendBinary(bw.AvailableBuffer())); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if s.net.writeTimeout > 0 {
		return conn.SetWriteDeadline(time.Time{})
	}
	return nil
}

func (s *sender) dial() (net.Conn, error) {
	d := net.Dialer{Timeout: s.net.dialTimeout}
	conn, err := d.DialContext(s.net.ctx, "tcp", s.addr)
	if err != nil {
		return nil, err
	}
	if !s.net.trackConn(conn) {
		_ = conn.Close()
		return nil, transport.ErrClosed
	}
	if err := s.writeHello(conn); err != nil {
		_ = conn.Close()
		s.net.untrackConn(conn)
		return nil, err
	}
	return conn, nil
}

// writeHello sends the 8-byte identity frame under the same write deadline
// as every batch write. Without the deadline a peer that accepts but never
// reads could wedge the sender goroutine here, before writeBatch's deadline
// ever applies.
func (s *sender) writeHello(conn net.Conn) error {
	if s.net.writeTimeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(s.net.writeTimeout)); err != nil {
			return err
		}
	}
	var hello [8]byte
	binary.LittleEndian.PutUint64(hello[:], uint64(int64(s.net.self)))
	if _, err := conn.Write(hello[:]); err != nil {
		return err
	}
	if s.net.writeTimeout > 0 {
		return conn.SetWriteDeadline(time.Time{})
	}
	return nil
}
