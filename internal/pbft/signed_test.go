package pbft

import (
	"unidir/internal/types"
	"unidir/internal/wire"
)

// signedBytes is the statement a signature covers, for tests that sign as
// other replicas.
func signedBytes(kind byte, v types.View, n types.SeqNum, payload []byte) []byte {
	e := wire.NewEncoder(0)
	appendSigned(e, kind, v, n, payload)
	return e.Bytes()
}
