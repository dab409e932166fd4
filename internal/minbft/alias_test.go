package minbft

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/smr"
	"unidir/internal/transport"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

// TestBroadcastBodyShared: simnet hands one payload to every receiver of a
// broadcast, and the decoders alias it, so the three replicas below decode,
// apply and keep the very same bytes at once. Under -race a write into a
// decoded body is a reported race (the detector keeps a few accesses per
// 8-byte word, so a write among the decoders' own reads of a header word
// can slip past it); any write that changes a byte fails the comparison
// with a pristine copy. The kept requests must read back exactly what was
// sent, and must alias the sent frame.
func TestBroadcastBodyShared(t *testing.T) {
	m, err := types.NewMembership(4, 1) // three replicas and a client
	if err != nil {
		t.Fatal(err)
	}
	net, err := simnet.New(m)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	sent := []smr.Request{
		{Client: 3, Num: 1, Op: kvstore.EncodePut("a", []byte("first value"))},
		{Client: 3, Num: 2, Op: kvstore.EncodePut("a", []byte("other value"))},
		{Client: 3, Num: 3, Op: kvstore.EncodePut("b", []byte("x"))},
	}
	payload := EncodeRequestEnvelope(sent)
	pristine := bytes.Clone(payload)
	replicas := []types.ProcessID{0, 1, 2}
	if err := transport.Broadcast(net.Endpoint(3), replicas, payload); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	kept := make([][]smr.Request, len(replicas))
	errs := make([]error, len(replicas))
	var wg sync.WaitGroup
	for i, id := range replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env, err := net.Endpoint(id).Recv(ctx)
			if err != nil {
				errs[i] = err
				return
			}
			_, body, _, err := decodeEnvelope(env.Payload)
			if err != nil {
				errs[i] = err
				return
			}
			reqs, err := decodeRequests(body)
			if err != nil {
				errs[i] = err
				return
			}
			store := kvstore.New()
			for _, req := range reqs {
				store.Apply(req.Op)
			}
			kept[i] = reqs
		}()
	}
	wg.Wait()
	if !bytes.Equal(payload, pristine) {
		t.Fatal("a replica wrote into the broadcast payload")
	}
	for i, reqs := range kept {
		if errs[i] != nil {
			t.Fatalf("replica %d: %v", i, errs[i])
		}
		if len(reqs) != len(sent) {
			t.Fatalf("replica %d kept %d requests, want %d", i, len(reqs), len(sent))
		}
		for j, req := range reqs {
			if req.ID() != sent[j].ID() || !bytes.Equal(req.Op, sent[j].Op) {
				t.Fatalf("replica %d request %d = %+v, want %+v", i, j, req, sent[j])
			}
			if &req.Op[0] != &kept[0][j].Op[0] || !within(req.Op, payload) {
				t.Fatalf("replica %d request %d does not alias the broadcast frame", i, j)
			}
		}
	}
}

// within reports whether b lies inside buf's memory.
func within(b, buf []byte) bool {
	for i := range buf {
		if &buf[i] == &b[0] {
			return i+len(b) <= len(buf)
		}
	}
	return false
}

// TestBackupRequestFrameAllocs pins a backup's intake of one-request client
// frames through HandleEnvelope: the envelope body, the request and its Op
// all alias the frame, so admitting a fresh request allocates nothing (the
// pending set and the watchdog lane grow in amortized steps). The parent
// copied each envelope body out of its frame.
func TestBackupRequestFrameAllocs(t *testing.T) {
	m, err := types.NewMembership(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	netM, err := types.NewMembership(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := simnet.New(netM)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(m, net.Endpoint(1), tu.Devices[1], tu.Verifier, kvstore.New(), WithRequestTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// Stop the replica's goroutines: from here on the test goroutine owns
	// its state and drives it directly.
	_ = r.Close()
	frames := make([]transport.Envelope, 201)
	for i := range frames {
		req := smr.Request{Client: 3, Num: uint64(i + 1), Op: kvstore.EncodePut("key", []byte("value"))}
		frames[i] = transport.Envelope{From: 3, To: 1, Payload: EncodeRequestEnvelope([]smr.Request{req})}
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
