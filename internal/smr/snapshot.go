package smr

// Checkpoint support shared by the SMR protocols: the Snapshotter contract a
// state machine implements to participate in checkpointing, a deterministic
// encoding of the per-client dedup table (which must travel with every
// snapshot — restoring application state without the table would re-execute
// requests the snapshot already reflects), and the combined checkpoint-state
// payload whose digest replicas vote on.

import (
	"fmt"
	"sort"

	"unidir/internal/wire"
)

// Snapshotter extends StateMachine with checkpoint support. Snapshot must be
// deterministic: two replicas that applied the same command sequence must
// produce identical bytes, because checkpoint certificates are votes on the
// digest of the combined state. Restore replaces the machine's state with a
// previously snapshotted one. Both are called from the replica's single
// apply goroutine, like Apply.
type Snapshotter interface {
	StateMachine
	Snapshot() []byte
	Restore(snap []byte) error
}

// maxTableClients bounds decoded client tables (defensive).
const maxTableClients = 1 << 20

// Encode returns the canonical wire form of the table: entries sorted by
// client ID, each with the last executed number and cached result.
func (t *ClientTable) Encode() []byte {
	clients := make([]uint64, 0, len(t.last))
	for c := range t.last {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	e := wire.NewEncoder(16 + 32*len(clients))
	e.Int(len(clients))
	for _, c := range clients {
		e.Uint64(c)
		e.Uint64(t.last[c])
		e.BytesField(t.res[c])
	}
	return e.Bytes()
}

// DecodeClientTable parses a table encoded by Encode.
func DecodeClientTable(b []byte) (*ClientTable, error) {
	d := wire.NewDecoder(b)
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > maxTableClients {
		return nil, fmt.Errorf("smr: client table with %d entries", n)
	}
	t := NewClientTable()
	for i := 0; i < n; i++ {
		c := d.Uint64()
		t.last[c] = d.Uint64()
		t.res[c] = append([]byte(nil), d.BytesField()...)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("smr: decode client table: %w", err)
	}
	return t, nil
}

// EncodeCheckpointState combines an application snapshot and the client
// table into the single payload checkpoints digest and transfer. Both inputs
// are deterministic, so the payload (and hence its hash) is identical on
// every replica that executed the same prefix.
func EncodeCheckpointState(app []byte, t *ClientTable) []byte {
	table := t.Encode()
	e := wire.NewEncoder(16 + len(app) + len(table))
	e.BytesField(app)
	e.BytesField(table)
	return e.Bytes()
}

// DecodeCheckpointState splits a checkpoint-state payload back into the
// application snapshot and the client table.
func DecodeCheckpointState(b []byte) ([]byte, *ClientTable, error) {
	d := wire.NewDecoder(b)
	app := append([]byte(nil), d.BytesField()...)
	tableBytes := d.BytesField()
	if err := d.Finish(); err != nil {
		return nil, nil, fmt.Errorf("smr: decode checkpoint state: %w", err)
	}
	t, err := DecodeClientTable(tableBytes)
	if err != nil {
		return nil, nil, err
	}
	return app, t, nil
}
