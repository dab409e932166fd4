// Package rounds implements the paper's round-structured communication
// systems, one per communication class:
//
//   - SWMR: unidirectional rounds from shared memory with ACLs (Claim §3.2,
//     the write-then-scan protocol of Aguilera et al.). Works over any
//     swmr.Memory — local store or the RPC client.
//   - RBF1: unidirectional rounds from reliable broadcast in the corner case
//     f = 1, n >= 3 (Appendix): two-phase sign-and-forward.
//   - Async: zero-directional rounds from plain asynchronous message
//     passing — send to all, wait for n-f round messages. This is the
//     natural (and provably best possible) round protocol over any
//     eventual-delivery medium, including SRB; the separation experiment
//     (internal/separation) runs it over SRB and shows it violates
//     unidirectionality.
//   - Lockstep: bidirectional rounds, modelling lock-step synchrony: a round
//     ends only when the messages of all live processes have arrived. The
//     harness supplies the live set (the synchronous model's perfect crash
//     knowledge).
//   - DeltaSync: rounds under Δ-synchrony, each ending a fixed wait after
//     the process's own send.
//
// Each system is a Core — a step function with no goroutines, locks or
// clock reads, fed received payloads, memory scan results and the local
// Send/SendAux/WaitEnd calls, and returning sends, appends, observer events,
// stream messages, round ends and scan requests — run by one Runner, which
// implements System over a transport or a swmr.Memory. A Send's writes are
// carried out before the core enters the round (Core.Sent), so a failed
// write enters none, an SWMR boundary scan follows its append, and a
// DeltaSync wait starts after its broadcast. Async, Lockstep and
// DeltaSync share one core that differs only in its round-end rule. The
// schedule test steps the cores single-threaded from a seed.
//
// All systems report their execution to an optional Observer —
// core.UniChecker implements Observer, making the unidirectionality
// predicate machine-checkable for every implementation.
package rounds

import (
	"context"
	"errors"

	"unidir/internal/types"
	"unidir/internal/wire"
)

var (
	// ErrRoundOrder reports a Send for a round not greater than the last
	// one sent, or a WaitEnd for a round never sent.
	ErrRoundOrder = errors.New("rounds: round order violation")
	// ErrClosed reports use of a closed system.
	ErrClosed = errors.New("rounds: system closed")
)

// Msg is one round message received from a peer.
type Msg struct {
	From  types.ProcessID
	Round types.Round
	Data  []byte
}

// System is one process's access to a round-structured communication medium.
//
// Discipline: rounds are entered by Send with strictly increasing round
// numbers (gaps allowed — a process may sit a round out). WaitEnd(r)
// requires that this process already sent its round-r message; it blocks
// until the system's round-end condition holds and returns the round-r
// messages received so far, keyed by sender (always including self).
//
// Recv streams every peer round message exactly once, including messages
// that arrive after their round's end and messages for rounds this process
// never entered; protocols that need stragglers (for example the SRB
// construction) consume the stream, while simple round-synchronous protocols
// use only WaitEnd.
type System interface {
	// Self returns this process's ID.
	Self() types.ProcessID
	// Membership returns the process group.
	Membership() types.Membership
	// Send enters round r with this process's message.
	Send(r types.Round, data []byte) error
	// SendAux sends an out-of-round message to all processes with
	// eventual-delivery semantics. Aux messages appear on Recv with
	// Round == 0 and are exempt from the round discipline and from
	// first-value-wins deduplication. Every medium that can implement
	// rounds trivially provides this (it is a round protocol with the
	// waiting removed); protocols such as the SRB construction use it to
	// disseminate proofs outside the round structure.
	SendAux(data []byte) error
	// WaitEnd blocks until round r is finished and returns its messages.
	WaitEnd(ctx context.Context, r types.Round) (map[types.ProcessID][]byte, error)
	// Recv returns the next received round message.
	Recv(ctx context.Context) (Msg, error)
	// Close releases the system's goroutines and unblocks waiters.
	Close() error
}

// AuxRound is the reserved Msg.Round value marking out-of-round messages.
const AuxRound types.Round = 0

// Observer receives execution events for property checking.
// core.UniChecker implements it.
type Observer interface {
	// Sent reports that p sent its round-r message.
	Sent(p types.ProcessID, r types.Round)
	// Got reports that p now possesses q's round-r message.
	Got(p, q types.ProcessID, r types.Round)
	// Boundary reports that p's round r ended (p began a later round or
	// closed its system).
	Boundary(p types.ProcessID, r types.Round)
}

// EncodeMessage produces the wire form of a round message body as sent by
// the transport-based systems (Async, Lockstep, DeltaSync). It is exported for
// Byzantine test harnesses that inject raw round traffic.
func EncodeMessage(r types.Round, data []byte) []byte {
	return encodeRoundMsg(r, data)
}

// encodeRoundMsg produces the wire form of a round message body.
func encodeRoundMsg(r types.Round, data []byte) []byte {
	e := wire.NewEncoder(12 + len(data))
	e.Uint64(uint64(r))
	e.BytesField(data)
	return e.Bytes()
}

// decodeRoundMsg parses a round message body; ok is false for garbage.
func decodeRoundMsg(b []byte) (r types.Round, data []byte, ok bool) {
	d := wire.NewDecoder(b)
	r = types.Round(d.Uint64())
	data = append([]byte(nil), d.BytesField()...)
	return r, data, d.Finish() == nil
}
