package pbft

import (
	"math/rand"
	"testing"

	"unidir/internal/kvstore"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/smr"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// TestBackupRequestFrameAllocs pins a backup's intake of one-request client
// frames through HandleEnvelope: the message payload, the request and its
// Op all alias the frame, so admitting a fresh request allocates nothing
// (the pending set grows in amortized steps). The parent copied each
// payload out of its frame.
func TestBackupRequestFrameAllocs(t *testing.T) {
	m, err := types.NewMembership(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	netM, err := types.NewMembership(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := simnet.New(netM)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	rings, err := sig.NewKeyrings(m, sig.HMAC, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(m, net.Endpoint(1), rings[1], kvstore.New())
	if err != nil {
		t.Fatal(err)
	}
	// Stop the replica's goroutines: from here on the test goroutine owns
	// its state and drives it directly.
	_ = r.Close()
	frames := make([]transport.Envelope, 201)
	for i := range frames {
		req := smr.Request{Client: 4, Num: uint64(i + 1), Op: kvstore.EncodePut("key", []byte("value"))}
		frames[i] = transport.Envelope{From: 4, To: 1, Payload: EncodeRequestEnvelope([]smr.Request{req})}
	}
	next := 0
	got := testing.AllocsPerRun(200, func() {
		orderer{r}.HandleEnvelope(frames[next])
		next++
	})
	const parent, want = 1, 0
	if got != want {
		t.Fatalf("one-request frame at a backup: %v allocations, want %d (the parent's code path made %d)", got, want, parent)
	}
	if n := r.eng.PendingLen(); n != len(frames) {
		t.Fatalf("%d requests pending, want %d", n, len(frames))
	}
}
