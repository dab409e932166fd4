// Package bracha implements sequenced reliable broadcast from nothing but
// authenticated point-to-point channels, with n >= 3f+1 — Bracha's classic
// reliable broadcast run per sequence number. It is the library's baseline:
// what SRB costs *without* trusted hardware, both in resilience (3f+1
// versus the trusted-hardware protocols' 2t+1 or better) and in messages
// (every broadcast takes an O(n²) echo and ready exchange).
//
// Per (sender, seq): the sender sends SEND(seq, m); a process receiving
// SEND from the sender's own channel sends ECHO(sender, seq, m) once; on
// ceil((n+f+1)/2) matching ECHOs, or f+1 matching READYs, it sends
// READY(sender, seq, m) once; on 2f+1 matching READYs it delivers — in
// sequence order per sender, buffering out-of-order completions.
package bracha

import (
	"crypto/sha256"
	"fmt"

	"unidir/internal/srb"
	"unidir/internal/transport"
	"unidir/internal/types"
	"unidir/internal/wire"
)

const (
	kindSend byte = iota + 1
	kindEcho
	kindReady
)

// Core is one process's Bracha broadcast as an srb.Core.
type Core struct {
	self    types.ProcessID
	m       types.Membership
	nextSeq types.SeqNum
	states  []*senderState
}

// senderState tracks all in-flight sequence numbers of one sender.
type senderState struct {
	next  types.SeqNum // next sequence number to deliver
	slots map[types.SeqNum]*slot
	ready map[types.SeqNum][]byte // completed but out-of-order payloads
}

// slot is the per-(sender, seq) Bracha instance state.
type slot struct {
	data      map[hash][]byte          // value hash -> payload
	votes     [2]map[hash]int          // ECHO and READY votes counted per value
	voted     map[types.ProcessID]byte // per voter, one bit per kind of vote counted
	delivered bool
}

type hash = [sha256.Size]byte

// NewCore returns process self's core for membership m (requires n >= 3f+1).
func NewCore(m types.Membership, self types.ProcessID) (*Core, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.N < 3*m.F+1 {
		return nil, fmt.Errorf("bracha: requires n >= 3f+1, got n=%d f=%d", m.N, m.F)
	}
	c := &Core{self: self, m: m, states: make([]*senderState, m.N)}
	for i := range c.states {
		c.states[i] = &senderState{
			next:  1,
			slots: make(map[types.SeqNum]*slot),
			ready: make(map[types.SeqNum][]byte),
		}
	}
	return c, nil
}

// New creates a node for membership m (requires n >= 3f+1).
func New(m types.Membership, tr transport.Transport) (*srb.Runner, error) {
	c, err := NewCore(m, tr.Self())
	if err != nil {
		return nil, err
	}
	return srb.NewRunner(m, tr, c), nil
}

// Broadcast starts the Bracha instance for this process's next sequence
// number: SEND to all, and this process's own SEND handled locally (the
// sender echoes its own message too).
func (c *Core) Broadcast(data []byte) (types.SeqNum, srb.Step, error) {
	c.nextSeq++
	send := encode(kindSend, c.self, c.nextSeq, data)
	step := c.Handle(c.self, send)
	step.Send = append([][]byte{send}, step.Send...)
	return c.nextSeq, step, nil
}

// Handle processes one protocol message from's authenticated channel.
func (c *Core) Handle(from types.ProcessID, payload []byte) srb.Step {
	kind, sender, seq, data, err := decode(payload)
	if err != nil || !c.m.Contains(sender) || seq == 0 || kind < kindSend || kind > kindReady {
		return srb.Step{}
	}
	st := c.states[sender]
	sl := st.slots[seq]
	if sl == nil {
		sl = &slot{
			data:  make(map[hash][]byte),
			votes: [2]map[hash]int{make(map[hash]int), make(map[hash]int)},
			voted: make(map[types.ProcessID]byte),
		}
		st.slots[seq] = sl
	}
	h := sha256.Sum256(data)
	var step srb.Step
	if kind == kindSend {
		// Only the sender's own channel may initiate its broadcast, and
		// this process echoes only the first SEND.
		if from != sender || !sl.vote(kindEcho, c.self, h, data) {
			return step
		}
		step.Send = append(step.Send, encode(kindEcho, sender, seq, data))
	} else if !sl.vote(kind, from, h, data) {
		return step
	}

	// Threshold transitions for every value with recorded votes: READY on
	// ceil((n+f+1)/2) ECHOs or f+1 READYs, delivery on 2f+1 READYs.
	for vh, payload := range sl.data {
		if (sl.votes[0][vh] >= c.m.Quorum() || sl.votes[1][vh] >= c.m.F+1) && sl.vote(kindReady, c.self, vh, payload) {
			step.Send = append(step.Send, encode(kindReady, sender, seq, payload))
		}
		if !sl.delivered && sl.votes[1][vh] >= 2*c.m.F+1 {
			sl.delivered = true
			st.ready[seq] = payload
			for {
				p, ok := st.ready[st.next]
				if !ok {
					break
				}
				delete(st.ready, st.next)
				step.Deliver = append(step.Deliver, srb.Delivery{Sender: sender, Seq: st.next, Data: p})
				st.next++
			}
		}
	}
	return step
}

// vote counts from's vote of kind (ECHO or READY) for the value hashed h.
// It reports false, counting nothing, if from already cast that kind of vote
// here: a Byzantine peer must not vote twice, for the same or another value.
func (sl *slot) vote(kind byte, from types.ProcessID, h hash, data []byte) bool {
	bit := byte(1) << (kind - kindEcho)
	if sl.voted[from]&bit != 0 {
		return false
	}
	sl.voted[from] |= bit
	sl.data[h] = data
	sl.votes[kind-kindEcho][h]++
	return true
}

func encode(kind byte, sender types.ProcessID, seq types.SeqNum, data []byte) []byte {
	e := wire.NewEncoder(24 + len(data))
	e.Byte(kind)
	e.Int(int(sender))
	e.Uint64(uint64(seq))
	e.BytesField(data)
	return e.Bytes()
}

func decode(payload []byte) (kind byte, sender types.ProcessID, seq types.SeqNum, data []byte, err error) {
	d := wire.NewDecoder(payload)
	kind = d.Byte()
	sender = types.ProcessID(d.Int())
	seq = types.SeqNum(d.Uint64())
	// Alias the payload rather than copying: both transports hand each
	// received message its own buffer, and nothing here mutates it. SEND
	// payloads at n=7 arrive ~n times per broadcast, so the copy was a
	// per-message allocation on the hottest path.
	data = d.BytesField()
	if err := d.Finish(); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("bracha: decode: %w", err)
	}
	return kind, sender, seq, data, nil
}
