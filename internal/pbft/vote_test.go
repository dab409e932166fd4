package pbft

import (
	"context"
	"crypto/sha256"
	"math/rand"
	"slices"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/obs"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/smr"
	"unidir/internal/types"
)

// voteRig runs replica 3 of n = 4 alone; the test plays replicas 0–2 (0 is
// the primary) by injecting their frames, and a client at endpoint 4 whose
// reads probe how far replica 3 has executed.
type voteRig struct {
	t      *testing.T
	net    *simnet.Network
	r      *Replica
	rings  []*sig.Keyring
	reg    *obs.Registry
	probes uint64
	commit bool // replica 3 has broadcast a COMMIT
}

// Two batches for slot 1: X is what the primary pre-prepares to replica 3,
// Y what votes cast elsewhere endorse.
var (
	batchX  = smr.EncodeRequests([]smr.Request{{Client: 4, Num: 1, Op: kvstore.EncodePut("k", []byte("x"))}})
	batchY  = smr.EncodeRequests([]smr.Request{{Client: 4, Num: 1, Op: kvstore.EncodePut("k", []byte("y"))}})
	digestX = sha256.Sum256(batchX)
	digestY = sha256.Sum256(batchY)
)

func newVoteRig(t *testing.T, rings []*sig.Keyring) *voteRig {
	t.Helper()
	m, _ := types.NewMembership(4, 1)
	netM, _ := types.NewMembership(5, 1)
	net, err := simnet.New(netM)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := New(m, net.Endpoint(3), rings[3], kvstore.New(), WithEngineConfig(smr.EngineConfig{
		LeaseTerm: -1, CheckpointInterval: 1 << 20, Metrics: reg,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return &voteRig{t: t, net: net, r: r, rings: rings, reg: reg}
}

func (g *voteRig) close() {
	_ = g.r.Close()
	g.net.Close()
}

func newRings(t *testing.T) []*sig.Keyring {
	t.Helper()
	m, _ := types.NewMembership(4, 1)
	rings, err := sig.NewKeyrings(m, sig.HMAC, rand.New(rand.NewSource(29)))
	if err != nil {
		t.Fatal(err)
	}
	return rings
}

// send delivers a frame for slot n from `from` to replica 3, signed with
// signer's key: from's own for a genuine frame, another's for a forgery.
func (g *voteRig) send(kind byte, n types.SeqNum, from, signer types.ProcessID, x bool) {
	payload := digestY[:]
	switch {
	case kind == kindPrePrepare && x:
		payload = batchX
	case kind == kindPrePrepare:
		payload = batchY
	case x:
		payload = digestX[:]
	}
	signature := g.rings[signer].Sign(signedBytes(kind, 0, n, payload))
	g.net.Inject(from, 3, encodeMsg(kind, 0, n, payload, signature))
}

// probe returns replica 3's executed-slot count once it has handled every
// frame injected before the call, and notes whether it has sent a COMMIT.
func (g *voteRig) probe() uint64 {
	g.t.Helper()
	g.probes++
	req := smr.ReadRequest{Client: 4, Num: g.probes, Op: kvstore.EncodeGet("k")}
	g.net.Inject(4, 3, encodeMsg(kindReadRequest, 0, 0, req.Encode(), nil))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var exec uint64
	for {
		env, err := g.net.Endpoint(4).Recv(ctx)
		if err != nil {
			g.t.Fatalf("no answer to read probe %d: %v", g.probes, err)
		}
		if rep, err := smr.DecodeReadReply(env.Payload); err == nil && rep.Num == g.probes {
			exec = rep.ExecSeq
			break
		}
	}
	// Replica 3's broadcasts reach endpoint 0 as they are made, so by now
	// every frame it sent before answering is queued there.
	done, stop := context.WithCancel(context.Background())
	stop()
	for {
		env, err := g.net.Endpoint(0).Recv(done)
		if err != nil {
			return exec
		}
		if kind, _, _, _, _, err := decodeMsg(env.Payload); err == nil && kind == kindCommit {
			g.commit = true
		}
	}
}

func (g *voteRig) verifies() uint64 {
	return g.reg.Snapshot().Counter("sig_verifications_total")
}

// TestVoteForOtherDigestBeforePrePrepare: PREPAREs and COMMITs for batch Y
// that reach a backup before the primary's PRE-PREPARE for X are not votes
// for X. An equivocating primary must not get the backup to prepare, commit
// or execute X on them; the slot completes only on 2f+1 matching votes.
func TestVoteForOtherDigestBeforePrePrepare(t *testing.T) {
	rings := newRings(t)
	t.Run("equivocation", func(t *testing.T) {
		g := newVoteRig(t, rings)
		defer g.close()
		for _, s := range []types.ProcessID{1, 2} {
			g.send(kindPrepare, 1, s, s, false)
			g.send(kindCommit, 1, s, s, false)
		}
		// Forged X votes in their names settle the held Y votes: verified
		// votes, but still not votes for X.
		for _, s := range []types.ProcessID{1, 2} {
			g.send(kindPrepare, 1, s, 0, true)
			g.send(kindCommit, 1, s, 0, true)
		}
		g.send(kindPrePrepare, 1, 0, 0, true)
		g.send(kindCommit, 1, 0, 0, true)
		if exec := g.probe(); exec != 0 || g.commit {
			t.Fatalf("after Y votes from 1 and 2 and PRE-PREPARE(X): executed %d, sent COMMIT %v; want neither", exec, g.commit)
		}
	})
	t.Run("late quorum", func(t *testing.T) {
		g := newVoteRig(t, rings)
		defer g.close()
		g.send(kindPrepare, 1, 1, 1, false)
		g.send(kindCommit, 1, 2, 2, false)
		g.send(kindPrePrepare, 1, 0, 0, true)
		if exec := g.probe(); exec != 0 || g.commit {
			t.Fatalf("prepared on PRE-PREPARE(X) + PREPARE(Y): executed %d, sent COMMIT %v", exec, g.commit)
		}
		g.send(kindPrepare, 1, 2, 2, true) // 0 (its pre-prepare), 2 and 3 prepare X
		if exec := g.probe(); exec != 0 || !g.commit {
			t.Fatalf("after 2f+1 PREPAREs for X: executed %d, sent COMMIT %v; want prepared only", exec, g.commit)
		}
		g.send(kindCommit, 1, 1, 1, true) // 1 and 3 commit X; 2's vote is Y's
		if exec := g.probe(); exec != 0 {
			t.Fatalf("committed on 2 COMMITs for X and 1 for Y (executed %d)", exec)
		}
		g.send(kindCommit, 1, 0, 0, true)
		if exec := g.probe(); exec != 1 {
			t.Fatalf("2f+1 COMMITs for X did not execute the slot (executed %d)", exec)
		}
	})
}

// voteFrame is one slot-1 frame of a randomized schedule.
type voteFrame struct {
	kind   byte
	from   types.ProcessID
	x      bool // for batch X, else Y
	forged bool // signed with another replica's key
}

// TestVoteRandomSchedules delivers one slot's PRE-PREPARE, PREPAREs and
// COMMITs in random order, some missing, some for the other batch, with a
// repeated pre-prepare or one from a backup, mixed with forged copies — some
// placed before the genuine vote they imitate.
// Each schedule runs twice, without and with the forgeries: the slot
// executes iff 2f+1 genuine matching votes arrived in each phase; without
// forgeries the replica verifies exactly what its quorums need, whatever the
// order; each forged frame adds at most one verification.
func TestVoteRandomSchedules(t *testing.T) {
	rings := newRings(t)
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var genuine []voteFrame
		pp := rng.Intn(8) > 0
		if pp {
			genuine = append(genuine, voteFrame{kind: kindPrePrepare, from: 0, x: true})
			if rng.Intn(3) == 0 { // a repeat: dropped before its signature
				genuine = append(genuine, voteFrame{kind: kindPrePrepare, from: 0, x: true})
			}
		}
		if rng.Intn(3) == 0 { // from a backup: dropped before its signature
			genuine = append(genuine, voteFrame{kind: kindPrePrepare, from: types.ProcessID(1 + rng.Intn(2)), x: rng.Intn(2) == 0})
		}
		matching := map[byte]int{} // genuine votes for X from replicas 1–2 (PREPARE), 0–2 (COMMIT)
		for _, kind := range []byte{kindPrepare, kindCommit} {
			for s := types.ProcessID(0); s < 3; s++ {
				switch c := rng.Intn(10); {
				case c < 5:
					genuine = append(genuine, voteFrame{kind: kind, from: s, x: true})
					if kind == kindCommit || s != 0 {
						matching[kind]++
					}
				case c < 7:
					genuine = append(genuine, voteFrame{kind: kind, from: s})
				}
			}
		}
		schedule := slices.Clone(genuine)
		rng.Shuffle(len(schedule), func(i, j int) { schedule[i], schedule[j] = schedule[j], schedule[i] })
		clean := slices.Clone(schedule)
		forged := 0
		for _, f := range genuine {
			if rng.Intn(10) < 3 { // a forgery of this vote, delivered before it
				at := slices.Index(schedule, f)
				schedule = slices.Insert(schedule, rng.Intn(at+1),
					voteFrame{kind: f.kind, from: f.from, x: rng.Intn(2) == 0, forged: true})
				forged++
			}
		}
		for i := rng.Intn(4); i > 0; i-- {
			kinds := []byte{kindPrePrepare, kindPrepare, kindCommit}
			f := voteFrame{kind: kinds[rng.Intn(3)], from: types.ProcessID(rng.Intn(4)), x: rng.Intn(2) == 0, forged: true}
			schedule = slices.Insert(schedule, rng.Intn(len(schedule)+1), f)
			forged++
		}

		prepared := pp && 2+matching[kindPrepare] >= 3 // the primary's pre-prepare and replica 3's own PREPARE
		committed := prepared && 1+matching[kindCommit] >= 3
		var want, need uint64
		if pp {
			need = 1 + uint64(min(matching[kindPrepare], 1))
		}
		if prepared {
			need += uint64(min(matching[kindCommit], 2))
		}
		if committed {
			want = 1
		}

		run := func(frames []voteFrame) (exec, verifies uint64) {
			g := newVoteRig(t, rings)
			defer g.close()
			for _, f := range frames {
				signer := f.from
				if f.forged {
					signer = (f.from + 1) % 4
				}
				g.send(f.kind, 1, f.from, signer, f.x)
			}
			return g.probe(), g.verifies()
		}
		if exec, verifies := run(clean); exec != want || verifies != need {
			t.Fatalf("seed %d %v: executed %d with %d verifications, want %d with %d", seed, clean, exec, verifies, want, need)
		}
		if exec, verifies := run(schedule); exec != want || verifies > need+uint64(forged) {
			t.Fatalf("seed %d %v: executed %d with %d verifications, want %d with at most %d + %d forged",
				seed, schedule, exec, verifies, want, need, forged)
		}
	}
}

// TestVoteFarAheadVerifiedBeforeOpeningSlot: a vote may open a slot
// unverified only near execution. Far past it the vote is verified first,
// so a forged one costs one verification and leaves no slot behind.
func TestVoteFarAheadVerifiedBeforeOpeningSlot(t *testing.T) {
	g := newVoteRig(t, newRings(t))
	defer g.close()
	check := func(what string, verifies uint64, slots int) {
		t.Helper()
		g.probe()
		if v, s := g.verifies(), g.r.Status().OpenSlots; v != verifies || s != slots {
			t.Fatalf("%s: %d verifications, %d open slots; want %d, %d", what, v, s, verifies, slots)
		}
	}
	g.send(kindPrepare, 1000, 1, 2, true)
	check("forged PREPARE far ahead", 1, 0)
	g.send(kindPrepare, 2, 1, 2, true)
	check("forged PREPARE near execution", 1, 1)
	g.send(kindPrepare, 1000, 1, 1, true)
	check("genuine PREPARE far ahead", 2, 2)
}
