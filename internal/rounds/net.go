package rounds

import (
	"fmt"
	"time"

	"unidir/internal/transport"
	"unidir/internal/types"
)

// NewAsync creates the zero-directional round system for tr's process over
// plain asynchronous message passing: Send broadcasts (r, m) to all
// processes, and a round ends once round-r messages from n-f distinct
// processes (counting self) have arrived — the most any process may safely
// block on under asynchrony, since the other f may be faulty and forever
// silent.
//
// This is the strongest round discipline asynchrony (or any medium that
// guarantees only eventual delivery, such as sequenced reliable broadcast)
// supports: the separation experiment in internal/separation runs it over
// SRB and drives it into unidirectionality violations exactly as in the
// paper's §4.1 argument.
func NewAsync(tr transport.Transport, m types.Membership, opts ...Option) (*Async, error) {
	if err := checkMember(m, tr.Self()); err != nil {
		return nil, err
	}
	cfg, err := configure(opts, false)
	if err != nil {
		return nil, err
	}
	return newRunner(newAsyncCore(m, tr.Self()), tr.Self(), m, tr, nil, cfg), nil
}

// NewLockstep creates the bidirectional round system for tr's process — the
// lock-step synchronous model: a round ends only when the round-r messages
// of every *live* process have arrived, so every correct-to-correct message
// is received before the receiver's next round.
//
// Model note: real synchronous systems obtain the live set from the bound Δ
// (a silent process is provably crashed after Δ). This simulation has no Δ,
// so the harness plays the synchronous scheduler and supplies the live set
// up front via WithLive (everyone is live by default). Byzantine-but-present
// processes must still send *something* each round, exactly as in the
// lock-step model where a missing message is detectably missing.
func NewLockstep(tr transport.Transport, m types.Membership, opts ...Option) (*Lockstep, error) {
	if err := checkMember(m, tr.Self()); err != nil {
		return nil, err
	}
	cfg, err := configure(opts, true)
	if err != nil {
		return nil, err
	}
	live := m.All()
	if cfg.hasLive {
		live = cfg.live
	}
	return newRunner(newLockstepCore(m, tr.Self(), live), tr.Self(), m, tr, nil, cfg), nil
}

// NewDeltaSync creates a round system in the Δ-synchronous model: every
// message arrives within a known bound Δ of being sent, but processes'
// clocks and round starts are not synchronized. A process ends its round
// wait after its own send: the wait starts once the send is carried out.
//
// The paper's observation (communication-models section): this timing
// discipline yields *unidirectionality* with wait >= Δ — of two correct
// processes that both send in round r, the later sender receives the
// earlier one's message before its own round ends (it was sent no later
// than the receiver's send and so arrives within Δ of it) — while
// bidirectionality would additionally require synchronized round starts
// (lock-step; see NewLockstep) or wait >= 2Δ plus an explicit start
// barrier. Waiting less than Δ guarantees nothing beyond
// zero-directionality.
//
// Pair it with a network whose delays really are bounded by Δ (for
// example simnet.WithJitter(Δ, seed)); against an unbounded adversary the
// model's premise, and hence the property, is void — that distinction is
// exactly the synchrony-versus-hardware trade the paper opens with.
func NewDeltaSync(tr transport.Transport, m types.Membership, wait time.Duration, opts ...Option) (*DeltaSync, error) {
	if err := checkMember(m, tr.Self()); err != nil {
		return nil, err
	}
	if wait <= 0 {
		return nil, fmt.Errorf("rounds: deltasync wait must be positive, got %v", wait)
	}
	cfg, err := configure(opts, false)
	if err != nil {
		return nil, err
	}
	return newRunner(newDeltaSyncCore(m, tr.Self(), wait), tr.Self(), m, tr, nil, cfg), nil
}

// endRule is when a netCore's round is over.
type endRule uint8

const (
	endQuorum endRule = iota // on n-f messages, self included (Async)
	endLive                  // on every live process's message (Lockstep)
	endTimer                 // wait after this process's send (DeltaSync)
)

// netCore is the core of the three message-passing systems: Send broadcasts
// the round message, and the systems differ only in their endRule.
type netCore struct {
	book
	rule   endRule
	live   []types.ProcessID         // endLive
	wait   time.Duration             // endTimer
	sentAt map[types.Round]time.Time // endTimer: when each send was carried out
}

func newAsyncCore(m types.Membership, self types.ProcessID) *netCore {
	return &netCore{book: newBook(m, self), rule: endQuorum}
}

func newLockstepCore(m types.Membership, self types.ProcessID, live []types.ProcessID) *netCore {
	return &netCore{book: newBook(m, self), rule: endLive, live: live}
}

func newDeltaSyncCore(m types.Membership, self types.ProcessID, wait time.Duration) *netCore {
	return &netCore{book: newBook(m, self), rule: endTimer, wait: wait, sentAt: make(map[types.Round]time.Time)}
}

// over reports whether round r is over at now and, for a timed round, when
// it will be.
func (c *netCore) over(r types.Round, now time.Time) (bool, time.Time) {
	switch c.rule {
	case endTimer:
		at := c.sentAt[r].Add(c.wait)
		return !now.Before(at), at
	case endLive:
		for _, p := range c.live {
			if _, ok := c.table[r][p]; !ok {
				return false, time.Time{}
			}
		}
		return true, time.Time{}
	default:
		return len(c.table[r]) >= c.m.Correct(), time.Time{}
	}
}

func (c *netCore) Send(r types.Round, data []byte) (*Step, error) {
	s := c.next()
	if err := c.send(r, data); err != nil {
		return nil, err
	}
	s.Send = append(s.Send, encodeRoundMsg(r, data))
	return s, nil
}

// Sent starts a timed round's wait: now is after the broadcast, so every
// peer's copy arrives within Δ of now.
func (c *netCore) Sent(now time.Time) *Step {
	s := c.next()
	if r, ok := c.sent(s); ok && c.rule == endTimer {
		c.sentAt[r] = now
	}
	return s
}

func (c *netCore) SendAux(data []byte) *Step {
	s := c.next()
	s.Send = append(s.Send, encodeRoundMsg(AuxRound, data))
	return s
}

func (c *netCore) WaitEnd(r types.Round, now time.Time) (*Step, error) {
	s := c.next()
	if err := c.await(r); err != nil {
		return nil, err
	}
	if over, at := c.over(r, now); over {
		c.end(s, r)
	} else {
		s.Wake = at
	}
	return s, nil
}

func (c *netCore) Handle(from types.ProcessID, payload []byte) *Step {
	s := c.next()
	r, data, ok := decodeRoundMsg(payload)
	switch {
	case !ok: // Byzantine garbage
	case r == AuxRound:
		c.aux(s, from, data)
	default:
		// A timed round ends on the clock, the others on a message.
		if c.record(s, from, r, data) && c.awaited[r] && c.rule != endTimer {
			if over, _ := c.over(r, time.Time{}); over {
				c.end(s, r)
			}
		}
	}
	return s
}

// Scanned is never called: message media have no objects.
func (c *netCore) Scanned(types.ProcessID, [][]byte) *Step { return c.next() }
