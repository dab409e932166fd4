package minbft

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/obs"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/smr"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

// White-box Byzantine-primary tests: the primary's trinket is driven by
// hand so the adversary controls exactly which replicas see which
// messages. (The black-box suite is in minbft_test.go.)

// byzPrimaryFixture runs backups 1 and 2 as real replicas of an n=3, f=1
// cluster whose primary (p0) is played by the test.
type byzPrimaryFixture struct {
	m       types.Membership
	net     *simnet.Network
	tu      *trinc.Universe
	backups []*Replica
	logs    []*smr.ExecutionLog
}

func newByzPrimaryFixture(t *testing.T, opts ...Option) *byzPrimaryFixture {
	t.Helper()
	m, err := types.NewMembership(3, 1)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	netM, err := types.NewMembership(4, 1)
	if err != nil {
		t.Fatalf("net membership: %v", err)
	}
	net, err := simnet.New(netM)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(81)))
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	fix := &byzPrimaryFixture{m: m, net: net, tu: tu}
	for i := 1; i <= 2; i++ {
		log := &smr.ExecutionLog{}
		all := append([]Option{WithRequestTimeout(time.Second)}, opts...)
		all = append(all, func(c *config) { c.ExecutionLog = log })
		rep, err := New(m, net.Endpoint(types.ProcessID(i)), tu.Devices[i], tu.Verifier,
			kvstore.New(), all...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		fix.backups = append(fix.backups, rep)
		fix.logs = append(fix.logs, log)
	}
	t.Cleanup(func() {
		for _, r := range fix.backups {
			_ = r.Close()
		}
		net.Close()
	})
	return fix
}

// preparePayload attests and encodes a PREPARE from the Byzantine primary.
func (f *byzPrimaryFixture) preparePayload(t *testing.T, req smr.Request) []byte {
	t.Helper()
	return f.attested(t, kindPrepare, prepare{View: 0, Reqs: []smr.Request{req}}.encodeBody())
}

// attested encodes (kind, body) under the Byzantine primary's next UI.
func (f *byzPrimaryFixture) attested(t *testing.T, kind byte, body []byte) []byte {
	t.Helper()
	dev := f.tu.Devices[0]
	ui, err := dev.Attest(usigCounter, dev.LastAttested(usigCounter)+1, uiBinding(kind, body))
	if err != nil {
		t.Fatalf("Attest: %v", err)
	}
	return encodeEnvelope(kind, body, &ui)
}

func TestOmittedPrepareRecoveredByFetch(t *testing.T) {
	// The Byzantine primary sends PREPARE(req) to backup 1 only. Backup 2
	// sees backup 1's COMMIT referencing a prepare it never received, and
	// must recover it through the fetch protocol and execute.
	fix := newByzPrimaryFixture(t)
	req := smr.Request{Client: 3, Num: 1, Op: kvstore.EncodePut("omitted", []byte("v"))}
	payload := fix.preparePayload(t, req)
	fix.net.Inject(0, 1, payload) // backup 1 only; backup 2 omitted

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if len(fix.logs[0].Snapshot()) == 1 && len(fix.logs[1].Snapshot()) == 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, log := range fix.logs {
		if got := len(log.Snapshot()); got != 1 {
			t.Fatalf("backup %d executed %d commands, want 1 (fetch recovery failed)", i+1, got)
		}
	}
	if err := smr.CheckPrefix(fix.logs[0].Snapshot(), fix.logs[1].Snapshot()); err != nil {
		t.Fatal(err)
	}
	// The client got its f+1 = 2 replies despite the omission.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	replies := 0
	for replies < 2 {
		env, err := fix.net.Endpoint(3).Recv(ctx)
		if err != nil {
			t.Fatalf("client received only %d replies: %v", replies, err)
		}
		if _, err := smr.DecodeReply(env.Payload); err == nil {
			replies++
		}
	}
}

func TestUIGapRecoveredByFetch(t *testing.T) {
	// The Byzantine primary sends PREPARE#1 to backup 1 only, then
	// PREPARE#2 to everyone. Backup 2 sees a UI gap (it got seq 2 before
	// seq 1) and must fetch seq 1 from backup 1; afterwards both backups
	// have executed both requests in order.
	fix := newByzPrimaryFixture(t)
	req1 := smr.Request{Client: 3, Num: 1, Op: kvstore.EncodePut("first", []byte("1"))}
	req2 := smr.Request{Client: 3, Num: 2, Op: kvstore.EncodePut("second", []byte("2"))}
	p1 := fix.preparePayload(t, req1)
	p2 := fix.preparePayload(t, req2)
	fix.net.Inject(0, 1, p1) // only backup 1 gets prepare #1
	fix.net.Inject(0, 1, p2)
	fix.net.Inject(0, 2, p2) // backup 2 starts at a gap

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if len(fix.logs[0].Snapshot()) == 2 && len(fix.logs[1].Snapshot()) == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, log := range fix.logs {
		if got := len(log.Snapshot()); got != 2 {
			t.Fatalf("backup %d executed %d commands, want 2", i+1, got)
		}
	}
	if err := smr.CheckPrefix(fix.logs[0].Snapshot(), fix.logs[1].Snapshot()); err != nil {
		t.Fatal(err)
	}
}

func TestEquivocatingPrepareBlockedByUSIG(t *testing.T) {
	// The defining hardware property at the protocol level: the primary
	// cannot produce two different prepares at one counter value. The
	// device refuses the second attestation outright, so the "attack"
	// cannot even be mounted; replicas can never see conflicting prepares
	// for one slot.
	fix := newByzPrimaryFixture(t)
	dev := fix.tu.Devices[0]
	reqA := smr.Request{Client: 3, Num: 1, Op: kvstore.EncodePut("a", nil)}
	reqB := smr.Request{Client: 3, Num: 1, Op: kvstore.EncodePut("b", nil)}
	bodyA := prepare{View: 0, Reqs: []smr.Request{reqA}}.encodeBody()
	bodyB := prepare{View: 0, Reqs: []smr.Request{reqB}}.encodeBody()
	next := dev.LastAttested(usigCounter) + 1
	if _, err := dev.Attest(usigCounter, next, uiBinding(kindPrepare, bodyA)); err != nil {
		t.Fatalf("first attest: %v", err)
	}
	if _, err := dev.Attest(usigCounter, next, uiBinding(kindPrepare, bodyB)); err == nil {
		t.Fatal("trinket attested two prepares at one counter value")
	}
}

func TestForgedUIRejected(t *testing.T) {
	// A message whose UI was minted by a *different* trinket than it
	// claims, or over a different body, must be ignored entirely.
	fix := newByzPrimaryFixture(t)
	req := smr.Request{Client: 3, Num: 1, Op: kvstore.EncodePut("x", nil)}
	body := prepare{View: 0, Reqs: []smr.Request{req}}.encodeBody()
	// Attest with trinket 0 but for a different body.
	dev := fix.tu.Devices[0]
	ui, err := dev.Attest(usigCounter, dev.LastAttested(usigCounter)+1, uiBinding(kindCommit, body))
	if err != nil {
		t.Fatalf("Attest: %v", err)
	}
	fix.net.Inject(0, 1, encodeEnvelope(kindPrepare, body, &ui))
	time.Sleep(100 * time.Millisecond)
	if got := len(fix.logs[0].Snapshot()); got != 0 {
		t.Fatalf("backup executed %d commands from a forged UI", got)
	}
}

func TestReplayedMessageCostsNoVerification(t *testing.T) {
	// A retransmitted or replayed replica message — its counter value at or
	// below the sender's cursor, or already buffered behind a gap — must be
	// dropped before its UI is verified: a replay flood then costs map
	// lookups, not signature checks. The Byzantine primary's COMMITs carry
	// Primary == sender, which handleCommit ignores, so nothing here makes
	// the backup send (and its peers verify) anything.
	fix := newByzPrimaryFixture(t)
	reg := obs.NewRegistry()
	fix.tu.Verifier.FastPath().AttachMetrics(reg)
	lookups := func() uint64 { return reg.Snapshot().Counter("sig_lookups_total") }
	commit := func() []byte {
		return fix.attested(t, kindCommit, commit{View: 0, Primary: 0, PrepSeq: 1}.encodeBody())
	}
	c1, c2, c3 := commit(), commit(), commit()
	for _, payload := range [][]byte{
		c1, // verified, processed: cursor 1
		c1, // replay at the cursor
		c3, // verified, buffered behind the gap at 2
		c3, // retransmission of the buffered copy
		c2, // verified; closes the gap: cursor 3
		c1, c2, c3,
	} {
		fix.net.Inject(0, 1, payload)
	}
	// The run goroutine looks up (and here verifies) the three distinct
	// messages only. With a spare core the receive goroutine additionally
	// pre-verifies every frame as it arrives (prewarm): it cannot see the
	// run goroutine's cursors, so it pays one lookup per frame regardless.
	want := uint64(3)
	if fix.tu.Verifier.Concurrent() {
		want += 8
	}
	deadline := time.Now().Add(10 * time.Second)
	for lookups() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// A status request queues behind the three replays that follow c2, so
	// once it is answered they have cost whatever they were going to.
	_ = fix.backups[0].Status()
	if got := lookups(); got != want {
		t.Fatalf("sig_lookups_total = %d after 3 distinct messages and 5 replays, want %d", got, want)
	}
}
