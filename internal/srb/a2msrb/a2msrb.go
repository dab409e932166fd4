// Package a2msrb implements sequenced reliable broadcast from Attested
// Append-only Memory — the A2M route to SRB (Chun et al.'s original use),
// beside srb/trincsrb's TrInc route: both trusted logs sit at SRB. Its core
// is srb.Sequencer over Attester: a Lookup proof certifies "entry k of my
// log is m", so the log index is the key and index-1 the predecessor.
package a2msrb

import (
	"fmt"

	"unidir/internal/srb"
	"unidir/internal/transport"
	"unidir/internal/trusted/a2m"
	"unidir/internal/types"
)

// broadcastNonce is the fixed Lookup nonce: broadcast proofs are
// statements about immutable log positions, so freshness is irrelevant
// (any valid proof for position k is eternally true).
var broadcastNonce = []byte("a2msrb/broadcast")

// Attester is srb.Sequencer's view of an A2M log: Log holds this process's
// messages, Ver checks the whole membership's proofs. Log's ID is the agreed
// protocol log ID.
type Attester struct {
	Log a2m.Log
	Ver *a2m.Verifier
}

// New creates a node. log must be a log on this process's A2M device (or a
// TrInc-backed a2m.TrIncLog — the construction is agnostic); ver must
// verify the whole membership's devices.
//
// The protocol binds every sender to one agreed log ID (log.ID() must be
// the same at every process — a protocol configuration constant, as in
// A2M-PBFT). Without the agreed ID, a Byzantine sender running two logs
// could show different receivers different streams.
func New(m types.Membership, tr transport.Transport, log a2m.Log, ver *a2m.Verifier) (*srb.Runner, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if log.Owner() != tr.Self() {
		return nil, fmt.Errorf("a2msrb: log owner %v != endpoint %v", log.Owner(), tr.Self())
	}
	return srb.NewRunner(m, tr, srb.NewSequencer[a2m.Proof](m, log.Owner(), Attester{Log: log, Ver: ver})), nil
}

// Attest appends data to the log and returns its Lookup proof.
func (a Attester) Attest(data []byte) (srb.Link, []byte, error) {
	seq, err := a.Log.Append(data)
	if err != nil {
		return srb.Link{}, nil, fmt.Errorf("a2msrb: append: %w", err)
	}
	proof, err := a.Log.Lookup(seq, broadcastNonce)
	if err != nil {
		return srb.Link{}, nil, fmt.Errorf("a2msrb: lookup: %w", err)
	}
	l, _ := a.Link(proof)
	return l, proof.Encode(), nil
}

// Decode parses a proof's wire form.
func (Attester) Decode(payload []byte) (a2m.Proof, error) { return a2m.DecodeProof(payload) }

// Link keys a proof by log index. Only Lookup proofs on the agreed log
// belong to this instance: a Byzantine sender running several logs cannot
// split the stream across receivers.
func (a Attester) Link(p a2m.Proof) (srb.Link, bool) {
	s := p.Stmt
	return srb.Link{Sender: s.Device, Key: s.Seq, Prev: s.Seq - 1, Data: s.Value},
		s.Kind == a2m.KindLookup && s.Log == a.Log.ID()
}

// Check verifies the proof.
func (a Attester) Check(p a2m.Proof) error { return a.Ver.Check(p) }
