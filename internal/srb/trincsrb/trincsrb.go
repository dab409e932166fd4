// Package trincsrb implements sequenced reliable broadcast from TrInc
// trusted counters — the trusted-log route to SRB behind the paper's
// classification of TrInc/A2M-style hardware as "no stronger than SRB". Its
// core is srb.Sequencer over Attester: the counter value is the key and the
// attestation's Prev the predecessor, so counter gaps chain through.
package trincsrb

import (
	"fmt"

	"unidir/internal/srb"
	"unidir/internal/transport"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// srbCounter is the trinket counter reserved for this protocol. Callers
// sharing a trinket with other protocols must not use the same counter.
const srbCounter uint64 = 0

// Message is an attested broadcast message.
type Message struct {
	Att  trinc.Attestation
	Data []byte
}

// Attester is srb.Sequencer's view of a trinket: Dev attests this process's
// messages, Ver checks the whole membership's.
type Attester struct {
	Dev *trinc.Device
	Ver *trinc.Verifier
}

// New creates a node. dev must be the trinket owned by tr's process; ver
// must verify the whole membership's trinkets.
func New(m types.Membership, tr transport.Transport, dev *trinc.Device, ver *trinc.Verifier) (*srb.Runner, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if dev.Owner() != tr.Self() {
		return nil, fmt.Errorf("trincsrb: trinket owner %v != endpoint %v", dev.Owner(), tr.Self())
	}
	return srb.NewRunner(m, tr, srb.NewSequencer[Message](m, dev.Owner(), Attester{Dev: dev, Ver: ver})), nil
}

// Attest attests data at the counter value after the last one attested, so
// a failed attest leaves no gap.
func (a Attester) Attest(data []byte) (srb.Link, []byte, error) {
	att, err := a.Dev.Attest(srbCounter, a.Dev.LastAttested(srbCounter)+1, data)
	if err != nil {
		return srb.Link{}, nil, fmt.Errorf("trincsrb: attest: %w", err)
	}
	l, _ := a.Link(Message{Att: att, Data: data})
	return l, EncodeMessage(att, data), nil
}

// Decode parses the wire form EncodeMessage produces.
func (Attester) Decode(payload []byte) (Message, error) {
	d := wire.NewDecoder(payload)
	attBytes := d.BytesField()
	data := append([]byte(nil), d.BytesField()...)
	if err := d.Finish(); err != nil {
		return Message{}, fmt.Errorf("trincsrb: decode: %w", err)
	}
	att, err := trinc.DecodeAttestation(attBytes)
	return Message{Att: att, Data: data}, err
}

// Link keys msg by counter value and chains it through Prev; only the
// protocol's counter belongs to this instance.
func (Attester) Link(msg Message) (srb.Link, bool) {
	a := msg.Att
	return srb.Link{Sender: a.Trinket, Key: a.Seq, Prev: a.Prev, Data: msg.Data}, a.Counter == srbCounter
}

// Check verifies the attestation and that it binds msg's data.
func (a Attester) Check(msg Message) error { return a.Ver.CheckMessage(msg.Att, msg.Data) }

// EncodeMessage produces the wire form of an attested broadcast message.
// It is exported for Byzantine test harnesses that drive trinkets directly.
func EncodeMessage(att trinc.Attestation, data []byte) []byte {
	attBytes := att.Encode()
	e := wire.NewEncoder(16 + len(attBytes) + len(data))
	e.BytesField(attBytes)
	e.BytesField(data)
	return e.Bytes()
}
