package rounds

import (
	"time"

	"unidir/internal/trusted/swmr"
	"unidir/internal/types"
)

// NewSWMR creates the unidirectional round system from shared memory with
// ACLs for the process identified by mem, over membership m — the protocol
// of Claim §3.2 (first introduced by Aguilera et al., DISC'19):
//
//	In round r, process p_i:
//	  to send message m, appends (r, m) to its own object o_i;
//	  then reads objects o_1 ... o_n.
//	p_i receives a round-r message m' from p_j if it reads (r, m') in o_j.
//
// Unidirectionality holds because of the write-then-scan order: of two
// correct processes that both write in round r, the one whose append
// linearizes second must see the other's entry in its scan.
//
// WaitEnd performs the scan that defines the round boundary. The runner
// keeps scanning so that late writes still reach the Recv stream (eventual
// delivery), which the SRB construction requires. Works over any
// swmr.Memory — local store or the RPC client.
func NewSWMR(mem swmr.Memory, m types.Membership, opts ...Option) (*SWMR, error) {
	if err := checkMember(m, mem.Self()); err != nil {
		return nil, err
	}
	cfg, err := configure(opts, false)
	if err != nil {
		return nil, err
	}
	return newRunner(newSWMRCore(m, mem.Self()), mem.Self(), m, nil, mem, cfg), nil
}

// swmrCore is write-then-scan: Send appends, and a round WaitEnd asked for
// is over once every object has been read since.
type swmrCore struct {
	book
	read   []bool // objects read since the last WaitEnd
	unread int    // objects still to read before the awaited rounds are over
}

func newSWMRCore(m types.Membership, self types.ProcessID) *swmrCore {
	return &swmrCore{book: newBook(m, self), read: make([]bool, m.N)}
}

// Send appends the round message; Sent, and so the boundary scan, waits for
// the append.
func (c *swmrCore) Send(r types.Round, data []byte) (*Step, error) {
	s := c.next()
	if err := c.send(r, data); err != nil {
		return nil, err
	}
	s.Append = append(s.Append, encodeRoundMsg(r, data))
	return s, nil
}

// SendAux appends an out-of-round message; peers' scans surface it on
// their Recv streams.
func (c *swmrCore) SendAux(data []byte) *Step {
	s := c.next()
	s.Append = append(s.Append, encodeRoundMsg(AuxRound, data))
	return s
}

// WaitEnd starts the boundary scan. Only reads made from now on count, so
// each of them comes after this round's append.
func (c *swmrCore) WaitEnd(r types.Round, _ time.Time) (*Step, error) {
	s := c.next()
	if err := c.await(r); err != nil {
		return nil, err
	}
	for q := range c.read {
		c.read[q] = false
	}
	c.unread = len(c.read)
	s.Scan = true
	return s, nil
}

// Handle is never called: memory media carry no messages.
func (c *swmrCore) Handle(types.ProcessID, []byte) *Step { return c.next() }

func (c *swmrCore) Scanned(owner types.ProcessID, entries [][]byte) *Step {
	s := c.next()
	for _, raw := range entries {
		r, data, ok := decodeRoundMsg(raw)
		switch {
		case !ok: // a Byzantine owner wrote garbage in its object
		case owner == c.self: // own entries are recorded at Send
		case r == AuxRound:
			c.aux(s, owner, data)
		default:
			c.record(s, owner, r, data)
		}
	}
	if c.unread > 0 && !c.read[owner] {
		c.read[owner] = true
		if c.unread--; c.unread == 0 {
			c.endAwaited(s)
		}
	}
	return s
}
