package minbft

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"unidir/internal/smr"
)

// The request envelope and the prepare body are written in one pass, in one
// allocation; they must stay byte-identical to their composed forms.
func TestRequestEnvelopeInPlace(t *testing.T) {
	reqs := []smr.Request{{Client: 3, Num: 1, Op: []byte("put")}, {Client: 3, Num: 2}}
	if got, want := EncodeRequestEnvelope(reqs), encodeEnvelope(kindRequest, smr.EncodeRequests(reqs), nil); !bytes.Equal(got, want) {
		t.Fatalf("EncodeRequestEnvelope = %x, want %x", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { EncodeRequestEnvelope(reqs) }); n != 1 {
		t.Fatalf("EncodeRequestEnvelope: %v allocations, want 1", n)
	}
	p, body := prepare{View: 4, Reqs: reqs}.withBody()
	want := []byte{4, 0, 0, 0, 0, 0, 0, 0}
	batch := smr.EncodeRequests(reqs)
	want = append(want, byte(len(batch)), 0, 0, 0)
	want = append(want, batch...)
	if !bytes.Equal(body, want) || !bytes.Equal(p.batch, batch) {
		t.Fatalf("prepare body %x (batch %x), want %x", body, p.batch, want)
	}
	back, err := decodePrepareBody(body)
	if err != nil || back.batchDigest() != sha256.Sum256(batch) || p.batchDigest() != sha256.Sum256(batch) {
		t.Fatalf("decoded prepare %+v (%v) digests differently", back, err)
	}
}
