package srb

import (
	"fmt"

	"unidir/internal/types"
)

// Link is where an attested message sits in its sender's trusted log.
type Link struct {
	Sender types.ProcessID
	Key    types.SeqNum // the message's position in the sender's log
	Prev   types.SeqNum // the key of the sender's previous message; 0 for its first
	Data   []byte
}

// Attester is what a trusted log contributes to a Sequencer; M is its
// attested message.
type Attester[M any] interface {
	// Attest binds data to this process's next log position and returns
	// its link and wire form.
	Attest(data []byte) (Link, []byte, error)
	// Decode parses a received wire form.
	Decode(payload []byte) (M, error)
	// Link names msg's place in its sender's log, or reports false if msg
	// belongs to another protocol instance.
	Link(msg M) (Link, bool)
	// Check verifies msg's attestation.
	Check(msg M) error
}

// Sequencer is SRB from an attested sequencer, as a Core. The trusted log
// never attests two messages at one key and each message names its
// predecessor's key, so a sender's messages form one chain that it cannot
// fork: chain position is the SRB sequence number. A process delivers each
// sender's chain in order and relays every message the first time it
// verifies one (strong termination over reliable channels). The sender is
// authenticated by the attestation, not the channel, so relays are sound.
// Safety comes from the hardware alone: any number of processes may be
// Byzantine.
type Sequencer[M any] struct {
	self   types.ProcessID
	m      types.Membership
	att    Attester[M]
	chains []chain
}

// chain is one sender's log as seen by this process.
type chain struct {
	last    types.SeqNum          // key of the last delivered link
	pos     types.SeqNum          // sequence number of the last delivered link
	pending map[types.SeqNum]Link // verified, undelivered links by Prev
	seen    map[types.SeqNum]bool // keys verified (and relayed) already
}

// NewSequencer returns process self's core over the attester att.
func NewSequencer[M any](m types.Membership, self types.ProcessID, att Attester[M]) *Sequencer[M] {
	s := &Sequencer[M]{self: self, m: m, att: att, chains: make([]chain, m.N)}
	for i := range s.chains {
		s.chains[i] = chain{pending: make(map[types.SeqNum]Link), seen: make(map[types.SeqNum]bool)}
	}
	return s
}

// Broadcast attests data and returns the position this process's own chain
// delivered it at.
func (s *Sequencer[M]) Broadcast(data []byte) (types.SeqNum, Step, error) {
	l, payload, err := s.att.Attest(data)
	if err != nil {
		return 0, Step{}, err
	}
	c := &s.chains[s.self]
	deliver := c.accept(l)
	if c.last != l.Key {
		// The log advanced outside this core (a device restarted from its
		// persisted counter, say), so no position can be named for it.
		return 0, Step{}, fmt.Errorf("srb: own attestation %d follows %d, not the last delivered %d", l.Key, l.Prev, c.last)
	}
	return c.pos, Step{Send: [][]byte{payload}, Deliver: deliver}, nil
}

// Handle verifies and chains one attested message. The channel it came on
// is irrelevant.
func (s *Sequencer[M]) Handle(_ types.ProcessID, payload []byte) Step {
	msg, err := s.att.Decode(payload)
	if err != nil {
		return Step{}
	}
	l, ok := s.att.Link(msg)
	if !ok || !s.m.Contains(l.Sender) {
		return Step{}
	}
	// Every process relays every message, so each arrives n-1 times: a
	// seen key costs no verification. seen is set only after a successful
	// check, so a forged copy cannot shadow the genuine one.
	c := &s.chains[l.Sender]
	if c.seen[l.Key] || s.att.Check(msg) != nil {
		return Step{}
	}
	step := Step{Deliver: c.accept(l)}
	if l.Sender != s.self {
		step.Send = [][]byte{payload} // the payload is canonical: relay it verbatim
	}
	return step
}

// accept records a verified link and delivers every link it makes
// contiguous with the chain.
func (c *chain) accept(l Link) []Delivery {
	c.seen[l.Key] = true
	c.pending[l.Prev] = l
	var out []Delivery
	for {
		next, ok := c.pending[c.last]
		if !ok {
			return out
		}
		delete(c.pending, c.last)
		c.last = next.Key
		c.pos++
		out = append(out, Delivery{Sender: next.Sender, Seq: c.pos, Data: next.Data})
	}
}
