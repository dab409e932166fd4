// Package byz provides reusable Byzantine actors for failure-injection
// tests and experiments: garbage spammers, replay attackers, and an
// equivocating round-message sender. Each actor owns its goroutine and is
// stopped with Stop/Close, following the library's lifecycle conventions.
//
// The actors deliberately attack below the protocol layer (raw payloads on
// the transport), which is exactly the power a Byzantine process has: it
// can send any bytes to anyone at any time, but cannot forge signatures or
// attestations. Protocol tests run correct nodes alongside these actors
// and then consult the property checkers.
package byz

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"unidir/internal/obs"
	"unidir/internal/rounds"
	"unidir/internal/sig"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// Spammer floods the membership with malformed payloads: random bytes,
// truncated frames, huge length prefixes, and empty messages. Protocols
// must drop all of it without stalling or crashing.
type Spammer struct {
	tr      transport.Transport
	targets []types.ProcessID
	rng     *rand.Rand
	every   time.Duration

	cancel context.CancelFunc
	done   chan struct{}

	mu   sync.Mutex
	sent int
}

// NewSpammer starts a spammer on tr aimed at targets, emitting one garbage
// payload per target every interval. The first volley is on the wire when
// NewSpammer returns, so load started afterwards always meets the attack.
// Stop it with Stop.
func NewSpammer(tr transport.Transport, targets []types.ProcessID, seed int64, interval time.Duration) *Spammer {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Spammer{
		tr:      tr,
		targets: targets,
		rng:     rand.New(rand.NewSource(seed)),
		every:   interval,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	if !s.volley() {
		close(s.done)
		return s
	}
	go s.run(ctx)
	return s
}

// Sent returns the number of garbage payloads emitted so far.
func (s *Spammer) Sent() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent
}

// Stop terminates the spammer and waits for its goroutine.
func (s *Spammer) Stop() {
	s.cancel()
	<-s.done
}

func (s *Spammer) run(ctx context.Context) {
	defer close(s.done)
	ticker := time.NewTicker(s.every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		if !s.volley() {
			return
		}
	}
}

// volley sends one garbage payload to every target; false once the
// transport refuses.
func (s *Spammer) volley() bool {
	payload := s.garbage()
	for _, to := range s.targets {
		if err := s.tr.Send(to, payload); err != nil {
			return false
		}
		s.mu.Lock()
		s.sent++
		s.mu.Unlock()
	}
	return true
}

// garbage produces one of several malformation families.
func (s *Spammer) garbage() []byte {
	switch s.rng.Intn(5) {
	case 0:
		return nil // empty payload
	case 1:
		return []byte{byte(s.rng.Intn(256))} // lone kind byte
	case 2: // random noise
		b := make([]byte, 1+s.rng.Intn(64))
		for i := range b {
			b[i] = byte(s.rng.Intn(256))
		}
		return b
	case 3: // plausible header, absurd length prefix
		return []byte{byte(s.rng.Intn(8) + 1), 0xFF, 0xFF, 0xFF, 0x7F}
	default: // long zero run (valid-length empty fields)
		return make([]byte, 1+s.rng.Intn(128))
	}
}

// Replayer is a man-in-the-mailbox attacker: it runs on its own (Byzantine)
// process, records every payload it receives, and replays each one several
// times to the whole membership. Protocols must be idempotent against
// duplicated and cross-delivered messages (which signatures and channel
// identities make detectable — a replayed message arrives from the
// replayer's channel, not the original sender's).
type Replayer struct {
	tr      transport.Transport
	targets []types.ProcessID
	copies  int

	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	replayed int
}

// NewReplayer starts a replayer on tr: every received payload is re-sent
// copies times to every target. Stop it with Stop.
func NewReplayer(tr transport.Transport, targets []types.ProcessID, copies int) *Replayer {
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replayer{
		tr:      tr,
		targets: targets,
		copies:  copies,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	go r.run(ctx)
	return r
}

// Replayed returns the number of payloads re-sent so far.
func (r *Replayer) Replayed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.replayed
}

// Stop terminates the replayer and waits for its goroutine.
func (r *Replayer) Stop() {
	r.cancel()
	<-r.done
}

func (r *Replayer) run(ctx context.Context) {
	defer close(r.done)
	for {
		env, err := r.tr.Recv(ctx)
		if err != nil {
			return
		}
		for i := 0; i < r.copies; i++ {
			for _, to := range r.targets {
				if err := r.tr.Send(to, env.Payload); err != nil {
					return
				}
				r.mu.Lock()
				r.replayed++
				r.mu.Unlock()
			}
		}
	}
}

// RoundEquivocator signs conflicting round messages as one Byzantine
// process and sends different values to different peers — the attack that
// shared-memory round media make physically impossible and that
// message-passing protocols must contain. It needs the Byzantine process's
// own keyring (a Byzantine process can always sign with its own key) and a
// payload signer for the protocol under attack.
type RoundEquivocator struct {
	tr   transport.Transport
	ring *sig.Keyring
}

// NewRoundEquivocator wraps the Byzantine process's endpoint and keyring.
func NewRoundEquivocator(tr transport.Transport, ring *sig.Keyring) *RoundEquivocator {
	return &RoundEquivocator{tr: tr, ring: ring}
}

// Keyring exposes the equivocator's signer to payload builders.
func (e *RoundEquivocator) Keyring() *sig.Keyring { return e.ring }

// SendRound sends a round-r message with the given protocol payload to one
// peer, using the transport-level round framing of Async/Lockstep systems.
// Call it with different payloads for different peers to equivocate.
func (e *RoundEquivocator) SendRound(to types.ProcessID, r types.Round, payload []byte) error {
	return e.tr.Send(to, rounds.EncodeMessage(r, payload))
}

// StatusForger wraps a replica's introspection surface and forges its
// checkpoint digest: the wrapped Status is reported verbatim except that
// the stable-checkpoint digest is bit-flipped. This models a Byzantine
// replica lying to the monitoring plane about its state — the exact
// equivocation the watch auditor's checkpoint-divergence rule must turn
// into evidence naming this replica. (A real Byzantine replica could not
// get such a digest past its peers' vote verification; it can absolutely
// serve one on its own /debug/status.)
type StatusForger struct {
	inner obs.StatusProvider
}

// ForgeCheckpointDigest wraps p so every reported stable checkpoint
// carries a corrupted digest.
func ForgeCheckpointDigest(p obs.StatusProvider) *StatusForger {
	return &StatusForger{inner: p}
}

// Status implements obs.StatusProvider.
func (f *StatusForger) Status() obs.Status {
	st := f.inner.Status()
	if st.Checkpoint != nil {
		ck := *st.Checkpoint
		ck.Digest = flipDigest(ck.Digest)
		st.Checkpoint = &ck
	}
	return st
}

// flipDigest deterministically corrupts a hex digest (first nibble XOR 0x8,
// so the result is still well-formed hex of the same length).
func flipDigest(d string) string {
	if d == "" {
		return "00"
	}
	b := []byte(d)
	switch c := b[0]; {
	case c >= '0' && c <= '7':
		b[0] = c + 8 // '0'-'7' -> '8'-'f' range via hex offset below
		if b[0] > '9' {
			b[0] = 'a' + (b[0] - '9' - 1)
		}
	default:
		b[0] = '0'
	}
	return string(b)
}
