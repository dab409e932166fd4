package srb

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"unidir/internal/syncx"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// ErrClosed reports use of a closed node.
var ErrClosed = errors.New("srb: node closed")

// Step is what one call into a Core asks for: each Send payload goes to
// every other member, and Deliver lists deliveries in the order they happen.
type Step struct {
	Send    [][]byte
	Deliver []Delivery
}

// Core is one process's SRB protocol as a step function. It is never called
// concurrently and does no I/O: the caller carries out the returned Step.
type Core interface {
	// Broadcast starts this process's next broadcast of data and returns the
	// sequence number it is delivered at.
	Broadcast(data []byte) (types.SeqNum, Step, error)
	// Handle processes one payload received on from's authenticated channel.
	Handle(from types.ProcessID, payload []byte) Step
}

// Runner implements Node by driving a Core from a transport: one receive
// goroutine, one lock around the core, and one delivery queue.
type Runner struct {
	tr     transport.Transport
	others []types.ProcessID

	mu     sync.Mutex
	core   Core
	closed bool

	deliveries *syncx.Queue[Delivery]
	cancel     context.CancelFunc
	done       chan struct{}
}

// NewRunner starts running core over tr, which the Runner owns from now on.
func NewRunner(m types.Membership, tr transport.Transport, core Core) *Runner {
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{
		tr:         tr,
		others:     m.Others(tr.Self()),
		core:       core,
		deliveries: syncx.NewQueue[Delivery](),
		cancel:     cancel,
		done:       make(chan struct{}),
	}
	go r.recvLoop(ctx)
	return r
}

// Self returns this process's ID.
func (r *Runner) Self() types.ProcessID { return r.tr.Self() }

// Broadcast takes the core's broadcast step.
func (r *Runner) Broadcast(data []byte) (types.SeqNum, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, ErrClosed
	}
	seq, step, err := r.core.Broadcast(data)
	r.deliver(step)
	r.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := r.send(step); err != nil {
		return 0, fmt.Errorf("srb: broadcast: %w", err)
	}
	return seq, nil
}

// Deliver returns the next delivery from any sender.
func (r *Runner) Deliver(ctx context.Context) (Delivery, error) {
	d, err := r.deliveries.Pop(ctx)
	if errors.Is(err, syncx.ErrQueueClosed) {
		return Delivery{}, ErrClosed
	}
	return d, err
}

// Close stops the receive goroutine, closes the transport and unblocks
// Deliver. Closing twice is a no-op.
func (r *Runner) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	r.cancel()
	_ = r.tr.Close()
	<-r.done
	r.deliveries.Close()
	return nil
}

func (r *Runner) recvLoop(ctx context.Context) {
	defer close(r.done)
	for {
		env, err := r.tr.Recv(ctx)
		if err != nil {
			return
		}
		r.mu.Lock()
		step := r.core.Handle(env.From, env.Payload)
		r.deliver(step)
		r.mu.Unlock()
		// Sends fail only on a closed transport, whose next Recv ends
		// this loop.
		_ = r.send(step)
	}
}

// deliver queues step's deliveries under the lock, so that a Broadcast and
// the receive goroutine cannot swap one sender's deliveries on the way to
// the queue. Pushing never blocks.
func (r *Runner) deliver(step Step) {
	for _, d := range step.Deliver {
		r.deliveries.Push(d)
	}
}

// send carries out step's sends outside the lock: Send never blocks on
// peers but may take the network's locks.
func (r *Runner) send(step Step) error {
	for _, payload := range step.Send {
		if err := transport.Broadcast(r.tr, r.others, payload); err != nil {
			return err
		}
	}
	return nil
}
