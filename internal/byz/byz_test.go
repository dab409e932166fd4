// Robustness (failure-injection) tests: correct protocol nodes run
// alongside the Byzantine actors, and the property checkers must stay
// green.
package byz_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"unidir/internal/byz"
	"unidir/internal/kvstore"
	"unidir/internal/minbft"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/smr"
	"unidir/internal/srb"
	"unidir/internal/srb/bracha"
	"unidir/internal/srb/trincsrb"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

func membership(t *testing.T, n, f int) types.Membership {
	t.Helper()
	m, err := types.NewMembership(n, f)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	return m
}

func TestSpammerEmitsGarbage(t *testing.T) {
	m := membership(t, 2, 0)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	s := byz.NewSpammer(net.Endpoint(0), []types.ProcessID{1}, 1, time.Millisecond)
	defer s.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for s.Sent() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Sent() < 10 {
		t.Fatalf("spammer emitted only %d payloads", s.Sent())
	}
}

func TestMinBFTSurvivesSpamAndReplay(t *testing.T) {
	// 5 replicas tolerate f=2; the two Byzantine slots are filled by a
	// garbage spammer and a replay attacker. The cluster must stay both
	// safe and live.
	m := membership(t, 5, 2)
	netM := membership(t, 6, 2) // +1 client
	net, err := simnet.New(netM)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(51)))
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	logs := make([]*smr.ExecutionLog, 3)
	var replicas []*minbft.Replica
	for i := 0; i < 3; i++ { // replicas 0..2 correct
		logs[i] = &smr.ExecutionLog{}
		rep, err := minbft.New(m, net.Endpoint(types.ProcessID(i)), tu.Devices[i], tu.Verifier,
			kvstore.New(), minbft.WithRequestTimeout(2*time.Second), minbft.WithEngineConfig(smr.EngineConfig{ExecutionLog: logs[i]}))
		if err != nil {
			t.Fatalf("minbft.New: %v", err)
		}
		replicas = append(replicas, rep)
	}
	defer func() {
		for _, r := range replicas {
			_ = r.Close()
		}
	}()
	// Byzantine slot 3: spams all correct replicas with garbage.
	spammer := byz.NewSpammer(net.Endpoint(3), []types.ProcessID{0, 1, 2}, 2, 200*time.Microsecond)
	defer spammer.Stop()
	// Byzantine slot 4: replays everything it receives three times.
	replayer := byz.NewReplayer(net.Endpoint(4), []types.ProcessID{0, 1, 2}, 3)
	defer replayer.Stop()

	base, err := smr.NewClient(net.Endpoint(5), m.All(), m.FPlusOne(), 5, 100*time.Millisecond,
		smr.WithRequestEncoder(minbft.EncodeRequestEnvelope))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	kv := kvstore.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := kv.Put(ctx, key, []byte{byte(i)}); err != nil {
			t.Fatalf("Put %s under attack: %v", key, err)
		}
	}
	v, err := kv.Get(ctx, "k7")
	if err != nil || v[0] != 7 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	// The writes can finish before the replayer has replayed anything; the
	// dedup check below means something only once it has.
	for deadline := time.Now().Add(5 * time.Second); replayer.Replayed() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the replayer replayed nothing within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	// Exactly 11 commands executed (10 puts + 1 get), identically ordered —
	// the replayed messages were all deduplicated.
	for i, log := range logs {
		if got := len(log.Snapshot()); got != 11 {
			t.Fatalf("replica %d executed %d commands, want 11", i, got)
		}
		if err := smr.CheckPrefix(logs[0].Snapshot(), log.Snapshot()); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
	if spammer.Sent() == 0 || replayer.Replayed() == 0 {
		t.Fatalf("attack did not actually run: spam=%d replay=%d", spammer.Sent(), replayer.Replayed())
	}
}

func TestTrincSRBSurvivesSpamAndReplay(t *testing.T) {
	m := membership(t, 4, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(52)))
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	rec := srb.NewRecorder()
	correct := []types.ProcessID{0, 1, 2}
	nodes := make([]srb.Node, 0, 3)
	for _, i := range correct {
		node, err := trincsrb.New(m, net.Endpoint(i), tu.Devices[i], tu.Verifier)
		if err != nil {
			t.Fatalf("trincsrb.New: %v", err)
		}
		nodes = append(nodes, node)
		defer node.Close()
	}
	// The Byzantine slot both spams and replays (two actors, one identity).
	spammer := byz.NewSpammer(net.Endpoint(3), correct, 3, 100*time.Microsecond)
	defer spammer.Stop()

	const msgs = 5
	for j := 0; j < msgs; j++ {
		data := []byte(fmt.Sprintf("m%d", j))
		seq, err := nodes[0].Broadcast(data)
		if err != nil {
			t.Fatalf("Broadcast: %v", err)
		}
		rec.Broadcast(0, seq, data)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i, n := range nodes {
		for j := 0; j < msgs; j++ {
			d, err := n.Deliver(ctx)
			if err != nil {
				t.Fatalf("node %d deliver: %v", i, err)
			}
			rec.Deliver(n.Self(), d)
		}
	}
	if err := rec.CheckAll(correct); err != nil {
		t.Fatal(err)
	}
}

func TestBrachaContainsRoundEquivocator(t *testing.T) {
	// A Byzantine *sender* uses raw sends to tell p1 one value and p2, p3
	// another for the same (sender, seq). Bracha must never let two correct
	// nodes deliver different values (it may deliver nothing).
	m := membership(t, 4, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	rec := srb.NewRecorder()
	correct := []types.ProcessID{1, 2, 3}
	nodes := make([]srb.Node, 0, 3)
	for _, i := range correct {
		node, err := bracha.New(m, net.Endpoint(i))
		if err != nil {
			t.Fatalf("bracha.New: %v", err)
		}
		nodes = append(nodes, node)
		defer node.Close()
	}
	// Hand-crafted SEND frames from p0 (kind=1, sender=0, seq=1).
	sendFrame := func(data string) []byte {
		payload := []byte{1}
		payload = append(payload, []byte{0, 0, 0, 0, 0, 0, 0, 0}...) // sender 0
		payload = append(payload, []byte{1, 0, 0, 0, 0, 0, 0, 0}...) // seq 1
		payload = append(payload, byte(len(data)), 0, 0, 0)
		return append(payload, data...)
	}
	net.Inject(0, 1, sendFrame("left"))
	net.Inject(0, 2, sendFrame("right"))
	net.Inject(0, 3, sendFrame("right"))

	// Collect whatever deliveries happen within a bounded window.
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	for _, n := range nodes {
		if d, err := n.Deliver(ctx); err == nil {
			rec.Deliver(n.Self(), d)
		}
	}
	if err := rec.CheckAgreement(correct); err != nil {
		t.Fatal(err)
	}
}

func TestRoundEquivocatorHelper(t *testing.T) {
	m := membership(t, 3, 1)
	net, err := simnet.New(m)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	defer net.Close()
	rings, err := sig.NewKeyrings(m, sig.HMAC, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatalf("NewKeyrings: %v", err)
	}
	eq := byz.NewRoundEquivocator(net.Endpoint(0), rings[0])
	if eq.Keyring().Self() != 0 {
		t.Fatal("wrong keyring")
	}
	if err := eq.SendRound(1, 1, []byte("to p1")); err != nil {
		t.Fatalf("SendRound: %v", err)
	}
	if err := eq.SendRound(2, 1, []byte("to p2")); err != nil {
		t.Fatalf("SendRound: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	env, err := net.Endpoint(1).Recv(ctx)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if env.From != 0 {
		t.Fatalf("From = %v", env.From)
	}
}
