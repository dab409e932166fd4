package trincsrb_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/srb"
	"unidir/internal/srb/trincsrb"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

// failOnce is a trinc.CounterStore whose failAt-th Record fails, as a disk
// error under the counter WAL would.
type failOnce struct {
	calls, failAt int
	last          map[uint64]uint64
}

func (s *failOnce) Record(counter, value uint64) error {
	s.calls++
	if s.calls == s.failAt {
		return errors.New("disk error")
	}
	s.last[counter] = value
	return nil
}

func (s *failOnce) Last() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(s.last))
	for k, v := range s.last {
		out[k] = v
	}
	return out
}

func TestBroadcastSeqAfterFailedAttest(t *testing.T) {
	// A failed attest must not use up a sequence number: Broadcast returns
	// the position every receiver delivers the message at.
	m, err := types.NewMembership(4, 1)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(93)))
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	if err := tu.Devices[0].Persist(&failOnce{failAt: 2, last: map[uint64]uint64{}}); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	nodes := make([]srb.Node, m.N)
	for i := range nodes {
		if nodes[i], err = trincsrb.New(m, net.Endpoint(types.ProcessID(i)), tu.Devices[i], tu.Verifier); err != nil {
			t.Fatalf("New: %v", err)
		}
		defer nodes[i].Close()
	}

	rec := srb.NewRecorder()
	for i, want := range []types.SeqNum{1, 0, 2} {
		data := []byte{byte('a' + i)}
		seq, err := nodes[0].Broadcast(data)
		if want == 0 {
			if err == nil {
				t.Fatalf("broadcast %d: succeeded with seq %d despite the failed counter write", i+1, seq)
			}
			continue
		}
		if err != nil || seq != want {
			t.Fatalf("broadcast %d: seq %d, err %v; want seq %d", i+1, seq, err, want)
		}
		rec.Broadcast(0, seq, data)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, node := range nodes {
		for j := 0; j < 2; j++ {
			d, err := node.Deliver(ctx)
			if err != nil {
				t.Fatalf("%v deliver %d: %v", node.Self(), j+1, err)
			}
			rec.Deliver(node.Self(), d)
		}
	}
	if err := rec.CheckAll(m.All()); err != nil {
		t.Fatal(err)
	}
}
