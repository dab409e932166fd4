package pbft

import (
	"math/rand"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/smr"
	"unidir/internal/types"
)

// TestNotReadyDuringStateTransfer: a replica shown a checkpoint certificate
// beyond its execution fetches the state, and until the state arrives it is
// not serving normally — Ready, ReadyReason and Status all say so. The test
// plays replicas 0–2, whose 2f+1 signed votes at position 2 make the
// certificate, and never answers the fetch.
func TestNotReadyDuringStateTransfer(t *testing.T) {
	m, err := types.NewMembership(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := simnet.New(m)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	rings, err := sig.NewKeyrings(m, sig.HMAC, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(m, net.Endpoint(3), rings[3], kvstore.New(),
		WithEngineConfig(smr.EngineConfig{CheckpointInterval: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Ready() || !r.Status().Ready {
		t.Fatal("an idle replica reports not ready")
	}

	var digest [32]byte
	for p := types.ProcessID(0); p < 3; p++ {
		signature := rings[p].Sign(signedBytes(kindCheckpoint, 0, 2, digest[:]))
		net.Inject(p, 3, encodeMsg(kindCheckpoint, 0, 2, digest[:], signature))
	}
	for deadline := time.Now().Add(10 * time.Second); r.Ready(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a replica fetching state still reports ready")
		}
	}
	const want = "state transfer in progress"
	if ready, reason := r.ReadyReason(); ready || reason != want {
		t.Fatalf("ReadyReason = %v, %q; want false, %q", ready, reason, want)
	}
	if st := r.Status(); st.Ready || st.ReadyReason != want || st.Stale {
		t.Fatalf("Status: ready %v, reason %q, stale %v; want a fresh not-ready snapshot", st.Ready, st.ReadyReason, st.Stale)
	}
}
