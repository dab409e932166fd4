package pbft

import (
	"bytes"
	"testing"

	"unidir/internal/smr"
)

// The request envelope is written in one pass, in one allocation; it must
// stay byte-identical to its composed form.
func TestRequestEnvelopeInPlace(t *testing.T) {
	reqs := []smr.Request{{Client: 3, Num: 1, Op: []byte("put")}, {Client: 3, Num: 2}}
	if got, want := EncodeRequestEnvelope(reqs), encodeMsg(kindRequest, 0, 0, smr.EncodeRequests(reqs), nil); !bytes.Equal(got, want) {
		t.Fatalf("EncodeRequestEnvelope = %x, want %x", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { EncodeRequestEnvelope(reqs) }); n != 1 {
		t.Fatalf("EncodeRequestEnvelope: %v allocations, want 1", n)
	}
}
