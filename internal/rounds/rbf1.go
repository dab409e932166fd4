package rounds

import (
	"fmt"
	"time"

	"unidir/internal/sig"
	"unidir/internal/transport"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// NewRBF1 creates the unidirectional round system from reliable
// (eventual-delivery) broadcast in the paper's corner case f = 1, n >= 3
// (Appendix B):
//
//	Phase 1: send (v, σ_p) to all; wait for valid phase-1 messages from
//	         n-1 distinct processes (counting self).
//	Phase 2: forward all phase-1 messages received to all; wait for valid
//	         phase-2 bundles from n-1 distinct processes, each containing
//	         >= n-1 distinct validly signed values.
//
// A process receives q's round-r message if it sees (v_q, σ_q) either
// directly or inside any phase-2 bundle. The proof: with at most one faulty
// process, every third party's bundle carries all but at most one phase-1
// value, so for any correct pair (p, q) at least one direction gets through
// by the end of phase 2. NewRBF1 requires f <= 1 and n >= 3, the regime in
// which the construction is proven correct.
func NewRBF1(tr transport.Transport, m types.Membership, ring *sig.Keyring, opts ...Option) (*RBF1, error) {
	c, err := newRBF1Core(m, ring)
	if err != nil {
		return nil, err
	}
	if ring.Self() != tr.Self() {
		return nil, fmt.Errorf("rounds: endpoint %v / keyring %v mismatch", tr.Self(), ring.Self())
	}
	cfg, err := configure(opts, false)
	if err != nil {
		return nil, err
	}
	return newRunner(c, tr.Self(), m, tr, nil, cfg), nil
}

const (
	rbPhase1 byte = 1
	rbPhase2 byte = 2
	rbAux    byte = 3
)

const rbDomain = "unidir/rounds/rbf1/p1"

// rbf1Core runs the two phases of a round once WaitEnd asks for it.
type rbf1Core struct {
	book
	ring    *sig.Keyring
	rounds  map[types.Round]*rbRound
	pendSig []byte // the pending Send's signature
}

type rbRound struct {
	sigs    map[types.ProcessID][]byte // signature per sender whose value we hold
	p2From  map[types.ProcessID]bool   // senders of valid phase-2 bundles
	bundled bool                       // this process already sent its bundle
}

func newRBF1Core(m types.Membership, ring *sig.Keyring) (*rbf1Core, error) {
	if err := checkMember(m, ring.Self()); err != nil {
		return nil, err
	}
	if m.F > 1 || m.N < 3 {
		return nil, fmt.Errorf("rounds: rbf1 requires f<=1 and n>=3, got n=%d f=%d", m.N, m.F)
	}
	return &rbf1Core{book: newBook(m, ring.Self()), ring: ring, rounds: make(map[types.Round]*rbRound)}, nil
}

func (c *rbf1Core) roundState(r types.Round) *rbRound {
	st := c.rounds[r]
	if st == nil {
		st = &rbRound{
			sigs:   make(map[types.ProcessID][]byte),
			p2From: make(map[types.ProcessID]bool),
		}
		c.rounds[r] = st
	}
	return st
}

func p1Bytes(r types.Round, data []byte) []byte {
	e := wire.NewEncoder(32 + len(data))
	e.String(rbDomain)
	e.Uint64(uint64(r))
	e.BytesField(data)
	return e.Bytes()
}

func encodePhase1(r types.Round, data, signature []byte) []byte {
	e := wire.NewEncoder(64 + len(data))
	e.Byte(rbPhase1)
	e.Uint64(uint64(r))
	e.BytesField(data)
	e.BytesField(signature)
	return e.Bytes()
}

// bundleEntry is one signed phase-1 value forwarded in a phase-2 bundle.
type bundleEntry struct {
	owner     types.ProcessID
	data, sig []byte
}

func encodeBundle(r types.Round, entries []bundleEntry) []byte {
	e := wire.NewEncoder(64)
	e.Byte(rbPhase2)
	e.Uint64(uint64(r))
	e.Int(len(entries))
	for _, en := range entries {
		e.Int(int(en.owner))
		e.BytesField(en.data)
		e.BytesField(en.sig)
	}
	return e.Bytes()
}

// Send signs and broadcasts this process's phase-1 message for round r.
func (c *rbf1Core) Send(r types.Round, data []byte) (*Step, error) {
	s := c.next()
	if err := c.send(r, data); err != nil {
		return nil, err
	}
	c.pendSig = c.ring.Sign(p1Bytes(r, data))
	s.Send = append(s.Send, encodePhase1(r, data, c.pendSig))
	return s, nil
}

// Sent enters the round, keeping its signature for the bundle.
func (c *rbf1Core) Sent(time.Time) *Step {
	s := c.next()
	if r, ok := c.sent(s); ok {
		c.roundState(r).sigs[c.self] = c.pendSig
	}
	return s
}

func (c *rbf1Core) SendAux(data []byte) *Step {
	s := c.next()
	e := wire.NewEncoder(8 + len(data))
	e.Byte(rbAux)
	e.BytesField(data)
	s.Send = append(s.Send, e.Bytes())
	return s
}

func (c *rbf1Core) WaitEnd(r types.Round, _ time.Time) (*Step, error) {
	s := c.next()
	if err := c.await(r); err != nil {
		return nil, err
	}
	c.progress(s, r)
	return s, nil
}

// progress moves the awaited round r on: once phase 1 holds n-1 values it
// forwards them all, once; once n-1 bundles (its own included) count, the
// round is over.
func (c *rbf1Core) progress(s *Step, r types.Round) {
	need := c.m.N - 1
	st := c.roundState(r)
	if !st.bundled && len(c.table[r]) >= need {
		st.bundled = true
		st.p2From[c.self] = true // own bundle counts
		var entries []bundleEntry
		for _, owner := range c.m.All() {
			if signature, ok := st.sigs[owner]; ok {
				entries = append(entries, bundleEntry{owner, c.table[r][owner], signature})
			}
		}
		s.Send = append(s.Send, encodeBundle(r, entries))
	}
	if st.bundled && len(st.p2From) >= need {
		c.end(s, r)
	}
}

func (c *rbf1Core) Handle(from types.ProcessID, payload []byte) *Step {
	s := c.next()
	if r, ok := c.handle(s, from, payload); ok && c.awaited[r] {
		c.progress(s, r)
	}
	return s
}

// handle processes one payload and reports the round it concerns, if any.
func (c *rbf1Core) handle(s *Step, from types.ProcessID, payload []byte) (types.Round, bool) {
	if len(payload) == 0 {
		return 0, false
	}
	d := wire.NewDecoder(payload)
	switch d.Byte() {
	case rbAux:
		data := append([]byte(nil), d.BytesField()...)
		if d.Finish() == nil {
			c.aux(s, from, data)
		}
	case rbPhase1:
		r := types.Round(d.Uint64())
		data := append([]byte(nil), d.BytesField()...)
		signature := append([]byte(nil), d.BytesField()...)
		if d.Finish() == nil {
			c.accept(s, r, from, data, signature)
			return r, true
		}
	case rbPhase2:
		r := types.Round(d.Uint64())
		n := d.Int()
		if d.Err() != nil || n < 0 || n > c.m.N {
			return 0, false
		}
		distinct := make(map[types.ProcessID]bool, n)
		for i := 0; i < n; i++ {
			owner := types.ProcessID(d.Int())
			data := append([]byte(nil), d.BytesField()...)
			signature := append([]byte(nil), d.BytesField()...)
			if d.Err() != nil {
				return r, true
			}
			if c.accept(s, r, owner, data, signature) {
				distinct[owner] = true
			}
		}
		if d.Finish() != nil {
			return r, true
		}
		// The bundle counts toward phase 2 only if it carries >= n-1
		// distinct validly signed values.
		if len(distinct) >= c.m.N-1 {
			c.roundState(r).p2From[from] = true
		}
		return r, true
	}
	return 0, false
}

// accept validates a signed phase-1 value (direct or forwarded) and records
// it. It reports whether the signature was valid, regardless of whether the
// value was new.
func (c *rbf1Core) accept(s *Step, r types.Round, owner types.ProcessID, data, signature []byte) bool {
	if !c.m.Contains(owner) {
		return false
	}
	if err := c.ring.Verify(owner, p1Bytes(r, data), signature); err != nil {
		return false
	}
	if owner != c.self {
		st := c.roundState(r)
		if _, ok := st.sigs[owner]; !ok {
			st.sigs[owner] = signature
		}
		c.record(s, owner, r, data)
	}
	return true
}

// Scanned is never called: message media have no objects.
func (c *rbf1Core) Scanned(types.ProcessID, [][]byte) *Step { return c.next() }
