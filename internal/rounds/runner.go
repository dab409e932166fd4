package rounds

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"

	"unidir/internal/syncx"
	"unidir/internal/transport"
	"unidir/internal/trusted/swmr"
	"unidir/internal/types"
)

// pollInterval is how often a runner scans a memory medium for entries
// written after its last scan, so that they reach Recv.
const pollInterval = 500 * time.Microsecond

// Option configures a round system.
type Option func(*config)

type config struct {
	obs     Observer
	live    []types.ProcessID
	hasLive bool
}

// WithObserver attaches a property-checking observer.
func WithObserver(obs Observer) Option {
	return func(c *config) { c.obs = obs }
}

// WithLive sets Lockstep's live set (default: all members). The other
// constructors reject it.
func WithLive(live []types.ProcessID) Option {
	return func(c *config) { c.live, c.hasLive = live, true }
}

// configure applies opts; only Lockstep (lockstep set) takes a live set.
func configure(opts []Option, lockstep bool) (config, error) {
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	if c.hasLive && !lockstep {
		return c, errors.New("rounds: WithLive applies to NewLockstep only")
	}
	return c, nil
}

// broadcaster is a transport that reaches every other member in one
// operation; the runner hands it each payload once instead of one copy per
// member.
type broadcaster interface {
	Broadcast(payload []byte) error
}

// Runner implements System by driving a Core from one medium: a transport
// (message media) or a swmr.Memory (memory media). It has one goroutine,
// which receives from the transport or scans the memory every
// pollInterval, and one lock, under which the core steps and each step is
// carried out: its sends and appends, its observer events, the Recv stream
// and the round ends WaitEnd callers wait for. An Observer must therefore not
// call back into the round system.
//
// A Send or SendAux whose write fails leaves the core as it was, and may be
// retried. Any other failed write (an RBF1 bundle) leaves the core ahead of
// the medium, so it fails the runner: every later call returns the error.
type Runner struct {
	self   types.ProcessID
	m      types.Membership
	others []types.ProcessID
	tr     transport.Transport // message media
	bc     broadcaster         // tr, if it broadcasts in one operation
	mem    swmr.Memory         // memory media
	obs    Observer

	mu     sync.Mutex
	core   Core
	cursor []int                                      // memory media: entries read so far, per object
	ends   map[types.Round]map[types.ProcessID][]byte // from End, for WaitEnd
	err    error                                      // ErrClosed after Close, or the failed write
	closed bool

	inbox  *syncx.Queue[Msg]
	pulse  *syncx.Pulse // fired when a round ends or the runner closes
	cancel context.CancelFunc
	done   chan struct{}
}

var _ System = (*Runner)(nil)

// The round systems, each a Runner over its own core.
type (
	// SWMR is write-then-scan over shared memory (NewSWMR).
	SWMR = Runner
	// RBF1 is forwarding over reliable broadcast at f = 1 (NewRBF1).
	RBF1 = Runner
	// Async is n−f rounds over message passing (NewAsync).
	Async = Runner
	// Lockstep is live-set rounds over message passing (NewLockstep).
	Lockstep = Runner
	// DeltaSync is timed rounds over message passing (NewDeltaSync).
	DeltaSync = Runner
)

// newRunner starts running c over exactly one of tr and mem, which the caller
// keeps owning.
func newRunner(c Core, self types.ProcessID, m types.Membership, tr transport.Transport, mem swmr.Memory, cfg config) *Runner {
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{
		self:   self,
		m:      m,
		others: m.Others(self),
		tr:     tr,
		mem:    mem,
		obs:    cfg.obs,
		core:   c,
		ends:   make(map[types.Round]map[types.ProcessID][]byte),
		inbox:  syncx.NewQueue[Msg](),
		pulse:  syncx.NewPulse(),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	if mem != nil {
		r.cursor = make([]int, m.N)
	}
	r.bc, _ = tr.(broadcaster)
	go r.loop(ctx)
	return r
}

// Self returns this process's ID.
func (r *Runner) Self() types.ProcessID { return r.self }

// Membership returns the process group.
func (r *Runner) Membership() types.Membership { return r.m }

// Send enters round round with this process's message, once its write is
// carried out. A Send whose write fails enters no round.
func (r *Runner) Send(round types.Round, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	step, err := r.core.Send(round, data)
	if err != nil {
		return err
	}
	if err := r.carry(step); err != nil {
		return fmt.Errorf("rounds: send: %w", err)
	}
	// The clock is read after the write: a timed round's wait starts here.
	return r.apply(r.core.Sent(time.Now()))
}

// SendAux sends an out-of-round message. It does not loop back to self.
func (r *Runner) SendAux(data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	// The core keeps nothing of an aux message: a failed write changes nothing.
	if err := r.carry(r.core.SendAux(data)); err != nil {
		return fmt.Errorf("rounds: aux send: %w", err)
	}
	return nil
}

// WaitEnd blocks until round round is over and returns its messages.
func (r *Runner) WaitEnd(ctx context.Context, round types.Round) (map[types.ProcessID][]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if msgs, ok := r.ends[round]; ok {
			delete(r.ends, round)
			return maps.Clone(msgs), nil
		}
		if r.err != nil {
			return nil, r.err
		}
		step, err := r.core.WaitEnd(round, time.Now())
		if err != nil {
			return nil, err
		}
		wake := step.Wake // read before a scan reuses the step
		if err := r.apply(step); err != nil {
			return nil, err
		}
		if _, ok := r.ends[round]; ok {
			continue
		}
		if err := r.sleep(ctx, wake); err != nil {
			return nil, err
		}
	}
}

// sleep releases the lock until a round ends, the runner closes, wake
// passes, or ctx is done.
func (r *Runner) sleep(ctx context.Context, wake time.Time) error {
	ch := r.pulse.Wait()
	r.mu.Unlock()
	defer r.mu.Lock()
	var timeout <-chan time.Time
	if !wake.IsZero() {
		t := time.NewTimer(time.Until(wake))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-ch:
	case <-timeout:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// Recv returns the next received round message.
func (r *Runner) Recv(ctx context.Context) (Msg, error) {
	msg, err := r.inbox.Pop(ctx)
	if errors.Is(err, syncx.ErrQueueClosed) {
		r.mu.Lock()
		defer r.mu.Unlock()
		return Msg{}, r.err
	}
	return msg, err
}

// Close reports the last round's boundary, stops the goroutine and unblocks
// waiters. The medium stays open. Closing twice is a no-op.
func (r *Runner) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	_ = r.carry(r.core.Close()) // events only
	r.err = ErrClosed
	r.mu.Unlock()
	r.cancel()
	<-r.done
	r.inbox.Close()
	r.pulse.Fire()
	return nil
}

// loop is the runner's goroutine: it feeds the core what the transport
// receives, or scans the memory every pollInterval.
func (r *Runner) loop(ctx context.Context) {
	defer close(r.done)
	if r.mem != nil {
		tick := time.NewTicker(pollInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
			case <-ctx.Done():
				return
			}
			r.mu.Lock()
			if r.err == nil {
				_ = r.scan() // a failed scan is retried on the next tick
			}
			r.mu.Unlock()
		}
	}
	for {
		env, err := r.tr.Recv(ctx)
		if err != nil {
			return
		}
		r.mu.Lock()
		if r.err == nil {
			_ = r.apply(r.core.Handle(env.From, env.Payload))
		}
		r.mu.Unlock()
	}
}

// apply carries out step, then the scan it asks for; r.mu is held. A failed
// write fails the runner. A failed read is only returned: the core has not
// seen it, and the next scan reads the same entries.
func (r *Runner) apply(step *Step) error {
	if err := r.carry(step); err != nil {
		return r.fail(err)
	}
	if step.Scan {
		return r.scan()
	}
	return nil
}

// fail fails the runner with the write error err and wakes every waiter.
func (r *Runner) fail(err error) error {
	r.err = fmt.Errorf("rounds: medium write failed: %w", err)
	r.inbox.Close()
	r.pulse.Fire()
	return r.err
}

// carry carries out step in field order, up to the scan. A failed write
// leaves the rest undone.
func (r *Runner) carry(step *Step) error {
	for _, payload := range step.Send {
		var err error
		if r.bc != nil {
			err = r.bc.Broadcast(payload)
		} else {
			err = transport.Broadcast(r.tr, r.others, payload)
		}
		if err != nil {
			return err
		}
	}
	for _, entry := range step.Append {
		if err := r.mem.Append(entry); err != nil {
			return err
		}
	}
	if r.obs != nil {
		for _, e := range step.Events {
			e.Report(r.self, r.obs)
		}
	}
	for _, msg := range step.Stream {
		r.inbox.Push(msg)
	}
	for _, e := range step.Ended {
		r.ends[e.Round] = e.Msgs
	}
	if len(step.Ended) > 0 {
		r.pulse.Fire()
	}
	return nil
}

// scan reads every object past its cursor, in owner order, and steps the
// core with each result.
func (r *Runner) scan() error {
	for q := range r.cursor {
		owner := types.ProcessID(q)
		entries, err := r.mem.ReadLog(owner, r.cursor[q])
		if err != nil {
			return fmt.Errorf("rounds: scan o_%d: %w", q, err)
		}
		r.cursor[q] += len(entries)
		// A Scanned step asks for no scan: carry it, do not apply it.
		if err := r.carry(r.core.Scanned(owner, entries)); err != nil {
			return err
		}
	}
	return nil
}
