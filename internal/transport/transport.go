// Package transport defines the message-passing interface all protocols in
// this library are written against. Two implementations exist:
//
//   - internal/simnet: an in-memory simulated network with adversarial
//     controls (delays, partitions, drops, manual scheduling) used by tests,
//     experiments, and benchmarks;
//   - internal/tcpnet: a TCP implementation with the same semantics, used by
//     the runnable cluster demos in cmd/.
//
// The model is the paper's: point-to-point authenticated channels between
// every pair of processes, asynchronous (no delivery bound), but reliable
// unless the harness explicitly drops messages. Authentication of the channel
// itself (the From field) is assumed, as is standard for BFT protocols;
// statements relayed second-hand are authenticated by signatures (package
// sig), not by the channel.
package transport

import (
	"context"
	"errors"

	"unidir/internal/obs/tracing"
	"unidir/internal/types"
)

// ErrClosed reports use of a transport after Close.
var ErrClosed = errors.New("transport: closed")

// Envelope is one received message.
//
// Payload is read-only. The receiver may keep it, or any slice of it, for as
// long as it likes: no transport reuses a payload's memory, and decoders
// hand out fields that alias it instead of copying them (a tcpnet frame is
// allocated once, when it is read). So nothing may write into a payload or
// into anything decoded from it: simnet hands one slice to every receiver of
// a broadcast, and a write would race with every other replica decoding the
// same message. A receiver that keeps a small piece of a large payload keeps
// the whole payload alive; copy the piece when that matters.
type Envelope struct {
	From    types.ProcessID
	To      types.ProcessID
	Payload []byte
	// Trace is the sender's trace context, when one rode along with the
	// message (zero otherwise). Transports propagate it out of band of the
	// payload, so signed and attested message bodies are unaffected.
	Trace tracing.Context
}

// Transport is one process's connection to the network.
//
// Send must not block on the destination's consumption (mailboxes are
// unbounded in simnet and writer-buffered in tcpnet), so protocol goroutines
// can never deadlock on each other through the network. Recv blocks until a
// message arrives, ctx is done, or the transport is closed.
type Transport interface {
	// Self returns the process this endpoint belongs to.
	Self() types.ProcessID
	// Send enqueues payload for delivery to the destination process.
	// The payload is owned by the transport after Send returns; callers
	// must not mutate it.
	Send(to types.ProcessID, payload []byte) error
	// Recv returns the next delivered message.
	Recv(ctx context.Context) (Envelope, error)
	// Close releases the endpoint and unblocks pending Recv calls.
	Close() error
}

// TraceSender is optionally implemented by transports that can carry a
// trace context alongside a payload (simnet and tcpnet both do). Protocols
// never depend on it directly; they go through SendTraced, which degrades to
// a plain Send on transports without trace support.
type TraceSender interface {
	SendTraced(to types.ProcessID, payload []byte, tc tracing.Context) error
}

// SendTraced sends payload with tc attached when the transport supports
// trace propagation and tc carries a trace; otherwise it is exactly Send.
func SendTraced(t Transport, to types.ProcessID, payload []byte, tc tracing.Context) error {
	if ts, ok := t.(TraceSender); ok && tc.Valid() {
		return ts.SendTraced(to, payload, tc)
	}
	return t.Send(to, payload)
}

// QueueDepther is optionally implemented by transports whose Send buffers
// outbound traffic per peer (tcpnet's per-peer sender queues). It exposes
// the current depth so upper layers can apply backpressure — a proposer can
// pause cutting batches for a peer whose queue is growing instead of letting
// the buffer absorb load without bound. simnet does not implement it
// (delivery is immediate); callers must treat absence as depth 0.
type QueueDepther interface {
	// QueueDepth reports the number of frames buffered for delivery to one
	// peer. It is a racy snapshot, suitable only for pacing heuristics.
	QueueDepth(to types.ProcessID) int
}

// QueuesBelow returns how many of ids have a send queue shorter than depth
// frames. A proposer that needs answers from k of its peers paces on this:
// as long as k queues are short, the peers it is actually waiting for are
// keeping up, and a peer that is down — whose queue only ever grows — is
// simply not among them.
func QueuesBelow(qd QueueDepther, ids []types.ProcessID, depth int) int {
	n := 0
	for _, id := range ids {
		if qd.QueueDepth(id) < depth {
			n++
		}
	}
	return n
}

// Broadcast sends payload to every process in ids (typically
// Membership.All() or Membership.Others(self)). It stops at the first send
// error. Sending to self is allowed and delivers locally.
func Broadcast(t Transport, ids []types.ProcessID, payload []byte) error {
	for _, id := range ids {
		if err := t.Send(id, payload); err != nil {
			return err
		}
	}
	return nil
}

// BroadcastTraced is Broadcast with a trace context attached to every copy.
func BroadcastTraced(t Transport, ids []types.ProcessID, payload []byte, tc tracing.Context) error {
	for _, id := range ids {
		if err := SendTraced(t, id, payload, tc); err != nil {
			return err
		}
	}
	return nil
}
