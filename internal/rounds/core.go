package rounds

import (
	"fmt"
	"time"

	"unidir/internal/types"
)

// Core is one process's round protocol as a step function: no goroutines,
// no locks, no clock reads. It is never called concurrently. Each call
// returns the core's own Step buffer: the caller (a Runner, or a test
// scheduler) carries it out before the next call, which reuses it.
type Core interface {
	// Send asks to enter round r with this process's message: its step
	// holds only the writes that carry the message. The round is entered by
	// Sent once they are carried out; if one fails, the caller does not call
	// Sent, and the core is as it was.
	Send(r types.Round, data []byte) (*Step, error)
	// Sent enters the round of the last Send, whose writes were carried out
	// by now. A timed round is measured from now.
	Sent(now time.Time) *Step
	// SendAux sends an out-of-round message to every other process.
	SendAux(data []byte) *Step
	// WaitEnd asks, at time now, for the end of round r, which this process
	// must have sent. The round's End comes in this step if r is over,
	// otherwise in the step of a later input. A timed core sets Step.Wake
	// instead: it is asked again at that time.
	WaitEnd(r types.Round, now time.Time) (*Step, error)
	// Handle processes one payload received on from's authenticated channel
	// (message media).
	Handle(from types.ProcessID, payload []byte) *Step
	// Scanned processes the entries read from owner's object past the
	// previous read of it (memory media). Its step asks for no scan.
	Scanned(owner types.ProcessID, entries [][]byte) *Step
	// Close ends this process's last round.
	Close() *Step
}

// Step is what one call into a Core asks for. Its effects are carried out in
// field order, each in the order listed: the sends and appends first, then
// the observer events, the stream messages and the round ends, and the scan
// last. A Sent event comes only from Sent, after the round's writes (an SWMR
// append completes before its Sent, and so before the boundary scan). A
// runner reports a step's events and ends its rounds under one lock, so no
// caller sees a round end before the Got events ahead of it.
type Step struct {
	Send   [][]byte // one payload for every other member each
	Append [][]byte // entries for this process's own object
	Events []Event  // for the Observer
	Stream []Msg    // for Recv
	Ended  []End    // awaited rounds that are now over
	// Scan asks for a read of every object, in owner order, each result
	// passed to Scanned.
	Scan bool
	// Wake, when set, is when to ask WaitEnd again.
	Wake time.Time
}

// End is a round that is over. Msgs is the core's table of the round's
// messages (always including this process's own), to which later steps may
// add late arrivals: read it only between calls into the core.
type End struct {
	Round types.Round
	Msgs  map[types.ProcessID][]byte
}

// EventKind names an Observer call.
type EventKind uint8

// The Observer calls, one per method.
const (
	EventSent EventKind = iota + 1
	EventGot
	EventBoundary
)

// Event is one observer report about the stepping process: it sent its
// round message, got From's, or ended the round.
type Event struct {
	Kind  EventKind
	From  types.ProcessID // EventGot only
	Round types.Round
}

// Report passes e, an event of process p, to obs.
func (e Event) Report(p types.ProcessID, obs Observer) {
	switch e.Kind {
	case EventSent:
		obs.Sent(p, e.Round)
	case EventGot:
		obs.Got(p, e.From, e.Round)
	case EventBoundary:
		obs.Boundary(p, e.Round)
	}
}

// book is the bookkeeping every core shares: the first-seen round messages
// per (round, sender), the send discipline, the rounds WaitEnd asked for,
// and the stream messages and observer events these produce, into the one
// step buffer the core returns.
type book struct {
	self     types.ProcessID
	m        types.Membership
	table    map[types.Round]map[types.ProcessID][]byte
	lastSent types.Round
	pending  Msg                  // the Send whose writes Sent awaits (Round 0: none)
	awaited  map[types.Round]bool // asked for and not yet over
	step     Step
}

func newBook(m types.Membership, self types.ProcessID) book {
	return book{
		self:    self,
		m:       m,
		table:   make(map[types.Round]map[types.ProcessID][]byte),
		awaited: make(map[types.Round]bool),
	}
}

// checkMember validates m and checks that self belongs to it.
func checkMember(m types.Membership, self types.ProcessID) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if !m.Contains(self) {
		return fmt.Errorf("rounds: process %v not in membership", self)
	}
	return nil
}

// next starts a step on the previous one's buffers.
func (b *book) next() *Step {
	s := &b.step
	s.Send, s.Append, s.Events, s.Stream, s.Ended = s.Send[:0], s.Append[:0], s.Events[:0], s.Stream[:0], s.Ended[:0]
	s.Scan, s.Wake = false, time.Time{}
	return s
}

// send enforces the strictly increasing round discipline and holds the
// message until its writes are carried out.
func (b *book) send(r types.Round, data []byte) error {
	if r <= b.lastSent {
		return errRoundOrder("Send", r, b.lastSent)
	}
	b.pending = Msg{From: b.self, Round: r, Data: data}
	return nil
}

// sent enters the pending Send's round: it records this process's own
// message and reports the previous round's Boundary and the Sent. It
// reports the round, and false if no Send is pending.
func (b *book) sent(s *Step) (types.Round, bool) {
	msg := b.pending
	if msg.Round == 0 {
		return 0, false
	}
	b.pending = Msg{}
	if prev := b.lastSent; prev > 0 {
		s.Events = append(s.Events, Event{Kind: EventBoundary, Round: prev})
	}
	b.lastSent = msg.Round
	b.store(b.self, msg.Round, msg.Data)
	s.Events = append(s.Events, Event{Kind: EventSent, Round: msg.Round})
	return msg.Round, true
}

// Sent enters the pending Send's round; untimed cores need nothing else.
func (b *book) Sent(time.Time) *Step {
	s := b.next()
	b.sent(s)
	return s
}

// record stores a peer's round message (first value wins per (round,
// sender)), reporting the Got and streaming it. It reports whether the
// message was new.
func (b *book) record(s *Step, from types.ProcessID, r types.Round, data []byte) bool {
	if _, dup := b.table[r][from]; dup {
		return false
	}
	b.store(from, r, data)
	if from != b.self {
		s.Events = append(s.Events, Event{Kind: EventGot, From: from, Round: r})
		s.Stream = append(s.Stream, Msg{From: from, Round: r, Data: data})
	}
	return true
}

// aux streams an out-of-round message: no table entry, no deduplication, no
// observer event.
func (b *book) aux(s *Step, from types.ProcessID, data []byte) {
	s.Stream = append(s.Stream, Msg{From: from, Round: AuxRound, Data: data})
}

func (b *book) store(from types.ProcessID, r types.Round, data []byte) {
	byRound := b.table[r]
	if byRound == nil {
		byRound = make(map[types.ProcessID][]byte)
		b.table[r] = byRound
	}
	byRound[from] = data
}

// await marks round r as asked for; this process must have sent it.
func (b *book) await(r types.Round) error {
	if _, ok := b.table[r][b.self]; !ok {
		return errRoundOrder("WaitEnd", r, b.lastSent)
	}
	b.awaited[r] = true
	return nil
}

// end ends the awaited round r.
func (b *book) end(s *Step, r types.Round) {
	delete(b.awaited, r)
	s.Ended = append(s.Ended, End{Round: r, Msgs: b.table[r]})
}

// endAwaited ends every awaited round.
func (b *book) endAwaited(s *Step) {
	for r := range b.awaited {
		b.end(s, r)
	}
}

// Close reports the last round's Boundary.
func (b *book) Close() *Step {
	s := b.next()
	if b.lastSent > 0 {
		s.Events = append(s.Events, Event{Kind: EventBoundary, Round: b.lastSent})
	}
	return s
}

func errRoundOrder(op string, r, last types.Round) error {
	return fmt.Errorf("%w: %s(%d) with last sent round %d", ErrRoundOrder, op, r, last)
}
