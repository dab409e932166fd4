// Package trincfromsrb implements the TrInc interface from sequenced
// reliable broadcast — Theorem 1 of the paper, the construction showing
// that trusted-log hardware is no stronger than SRB:
//
//	Attest(c, m):             Broadcast(k, (c, m)); return (k, (c, m))
//	CheckAttestation(a, q):   upon delivering (k, c, m) from q:
//	                              if C[q] < c { store (k, (c, m)); C[q] = c }
//	                          return whether a is stored
//
// The hardware trinket's guarantee — no two valid attestations for one
// counter value — is enforced here not by a device but by every checker's
// delivery-order filter: SRB's sequencing and agreement properties give all
// correct processes the same per-sender delivery order, so they store the
// same subset of attestations (those whose counter values are strictly
// increasing along the broadcast order), and SRB integrity replaces
// signature unforgeability (only genuinely broadcast attestations are ever
// delivered).
//
// Running this over srb/bracha yields TrInc from no trusted hardware at all
// (at n >= 3f+1 resilience); over srb/uniround it completes the paper's
// chain "shared memory ⇒ unidirectionality ⇒ SRB ⇒ TrInc".
package trincfromsrb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"unidir/internal/srb"
	"unidir/internal/syncx"
	"unidir/internal/types"
	"unidir/internal/wire"
)

var (
	// ErrClosed reports use of a closed trinket.
	ErrClosed = errors.New("trincfromsrb: closed")
	// ErrNotAttested reports a CheckAttestation that conclusively failed.
	ErrNotAttested = errors.New("trincfromsrb: attestation not valid")
)

// Attestation is the SRB-based attestation of the theorem: the broadcast
// sequence number k together with the attested (c, m) pair.
type Attestation struct {
	Process types.ProcessID // whose Trinket produced it
	K       types.SeqNum    // SRB broadcast sequence number
	C       types.SeqNum    // attested counter value
	Msg     []byte
}

// Trinket is one process's simulated trinket plus its checker state. The
// same object serves both roles of the paper's interface: Attest uses the
// underlying SRB node's sender instance; CheckAttestation consults the
// delivery-order filter fed by the node's deliveries.
type Trinket struct {
	node srb.Node

	mu      sync.Mutex
	highest map[types.ProcessID]types.SeqNum               // C[q]
	stored  map[types.ProcessID]map[types.SeqNum]storedAtt // q -> c -> stored
	closed  bool

	pulse  *syncx.Pulse
	cancel context.CancelFunc
	done   chan struct{}
}

type storedAtt struct {
	k   types.SeqNum
	msg []byte
}

// New wraps an SRB node as a trinket. The trinket owns the node's delivery
// stream; callers must not consume node.Deliver themselves.
func New(node srb.Node) *Trinket {
	ctx, cancel := context.WithCancel(context.Background())
	t := &Trinket{
		node:    node,
		highest: make(map[types.ProcessID]types.SeqNum),
		stored:  make(map[types.ProcessID]map[types.SeqNum]storedAtt),
		pulse:   syncx.NewPulse(),
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	go t.pump(ctx)
	return t
}

// Self returns the owning process's ID.
func (t *Trinket) Self() types.ProcessID { return t.node.Self() }

// Attest broadcasts (c, m) and returns the resulting attestation, exactly
// as in the theorem's construction. Note that, faithfully to the paper, no
// local monotonicity check is performed: an attestation with a reused or
// lower counter value is simply one that no correct checker will ever
// validate.
func (t *Trinket) Attest(c types.SeqNum, m []byte) (Attestation, error) {
	if c == 0 {
		return Attestation{}, fmt.Errorf("trincfromsrb: counter values start at 1")
	}
	e := wire.NewEncoder(16 + len(m))
	e.Uint64(uint64(c))
	e.BytesField(m)
	k, err := t.node.Broadcast(e.Bytes())
	if err != nil {
		return Attestation{}, fmt.Errorf("trincfromsrb: attest broadcast: %w", err)
	}
	return Attestation{Process: t.Self(), K: k, C: c, Msg: append([]byte(nil), m...)}, nil
}

// CheckAttestation reports whether a is currently known valid: previously
// output by q's trinket (i.e. delivered from q with a strictly increasing
// counter value). A false result may be transient — the delivery may not
// have arrived yet; use WaitAttestation for the eventual version.
func (t *Trinket) CheckAttestation(a Attestation, q types.ProcessID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.checkLocked(a, q)
}

func (t *Trinket) checkLocked(a Attestation, q types.ProcessID) bool {
	if a.Process != q {
		return false
	}
	s, ok := t.stored[q][a.C]
	if !ok {
		return false
	}
	return s.k == a.K && bytes.Equal(s.msg, a.Msg)
}

// WaitAttestation blocks until a validates, ctx is done, or the check can
// be conclusively rejected (a conflicting attestation holds (q, c)).
func (t *Trinket) WaitAttestation(ctx context.Context, a Attestation, q types.ProcessID) error {
	for {
		// Take the wakeup before checking: a delivery stored after the check
		// then fires a channel this loop already holds.
		ch := t.pulse.Wait()
		t.mu.Lock()
		if t.checkLocked(a, q) {
			t.mu.Unlock()
			return nil
		}
		if _, occupied := t.stored[q][a.C]; occupied || t.highest[q] >= a.C {
			// Counter value (q, c) is already bound to something else, or
			// q's counter advanced past c without storing it: a can never
			// become valid.
			t.mu.Unlock()
			return fmt.Errorf("%w: counter %d of %v bound otherwise", ErrNotAttested, a.C, q)
		}
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return ErrClosed
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Highest returns C[q], the highest stored counter value for q.
func (t *Trinket) Highest(q types.ProcessID) types.SeqNum {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.highest[q]
}

// Close stops the trinket's delivery pump (the underlying SRB node is not
// closed; the caller owns it).
func (t *Trinket) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	t.cancel()
	<-t.done
	t.pulse.Fire()
	return nil
}

func (t *Trinket) pump(ctx context.Context) {
	defer close(t.done)
	for {
		d, err := t.node.Deliver(ctx)
		if err != nil {
			return
		}
		dec := wire.NewDecoder(d.Data)
		c := types.SeqNum(dec.Uint64())
		m := append([]byte(nil), dec.BytesField()...)
		if dec.Finish() != nil || c == 0 {
			continue // not an attestation broadcast; ignore
		}
		t.mu.Lock()
		if t.highest[d.Sender] < c {
			byC := t.stored[d.Sender]
			if byC == nil {
				byC = make(map[types.SeqNum]storedAtt)
				t.stored[d.Sender] = byC
			}
			byC[c] = storedAtt{k: d.Seq, msg: m}
			t.highest[d.Sender] = c
		}
		t.mu.Unlock()
		t.pulse.Fire()
	}
}
