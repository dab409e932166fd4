package srb_test

import (
	"fmt"
	"math/rand"
	"testing"

	"unidir/internal/sig"
	"unidir/internal/srb"
	"unidir/internal/srb/a2msrb"
	"unidir/internal/srb/bracha"
	"unidir/internal/srb/trincsrb"
	"unidir/internal/trusted/a2m"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// The schedule tests step the push-style cores on one goroutine. Process 0
// is Byzantine: it runs no core, and its hand-made payloads start in the
// in-flight bag. A seeded rng picks every next event — a broadcast by a
// correct process, or one (from, to, payload) out of the bag, relayed
// duplicates included — until the bag is empty; then the four SRB
// properties must hold. A failure names its seed, which replays it.

const scheduleSeeds = 200

// envelope is one payload in flight.
type envelope struct {
	from, to types.ProcessID
	payload  []byte
}

// world is n cores, the messages in flight between them and a recorder.
type world struct {
	m     types.Membership
	rng   *rand.Rand
	cores []srb.Core // nil for the Byzantine process
	bag   []envelope
	rec   *srb.Recorder
	byz   []int // deliveries from the Byzantine process 0, per process
}

func newWorld(m types.Membership, seed int64) *world {
	return &world{m: m, rng: rand.New(rand.NewSource(seed)), cores: make([]srb.Core, m.N), rec: srb.NewRecorder(), byz: make([]int, m.N)}
}

// inject puts a Byzantine payload in flight.
func (w *world) inject(from, to types.ProcessID, payload []byte) {
	w.bag = append(w.bag, envelope{from, to, payload})
}

// apply carries out one step p took.
func (w *world) apply(p types.ProcessID, step srb.Step) {
	for _, d := range step.Deliver {
		w.rec.Deliver(p, d)
		if d.Sender == 0 {
			w.byz[p]++
		}
	}
	for _, payload := range step.Send {
		for _, q := range w.m.Others(p) {
			w.bag = append(w.bag, envelope{p, q, payload})
		}
	}
}

// run has every correct process broadcast perSender messages, interleaved
// with deliveries in an order the rng picks, until nothing is in flight.
func (w *world) run(t *testing.T, perSender int) {
	t.Helper()
	var todo []types.ProcessID // one entry per broadcast still to make
	for id, c := range w.cores {
		for j := 0; c != nil && j < perSender; j++ {
			todo = append(todo, types.ProcessID(id))
		}
	}
	for len(todo) > 0 || len(w.bag) > 0 {
		if len(todo) > 0 && (len(w.bag) == 0 || w.rng.Intn(4) == 0) {
			i := w.rng.Intn(len(todo))
			p := todo[i]
			todo = append(todo[:i], todo[i+1:]...)
			data := []byte(fmt.Sprintf("%v-%d", p, len(todo)))
			seq, step, err := w.cores[p].Broadcast(data)
			if err != nil {
				t.Fatalf("%v: Broadcast: %v", p, err)
			}
			w.rec.Broadcast(p, seq, data)
			w.apply(p, step)
			continue
		}
		i := w.rng.Intn(len(w.bag))
		e := w.bag[i]
		w.bag[i] = w.bag[len(w.bag)-1]
		w.bag = w.bag[:len(w.bag)-1]
		if c := w.cores[e.to]; c != nil {
			w.apply(e.to, c.Handle(e.from, e.payload))
		}
	}
}

// check runs the four property checks over the correct processes, and
// checks that each delivered byz messages from the Byzantine sender.
func (w *world) check(byz int) error {
	var correct []types.ProcessID
	for id, c := range w.cores {
		if c != nil {
			correct = append(correct, types.ProcessID(id))
			if w.byz[id] != byz {
				return fmt.Errorf("%v delivered %d messages from p0, want %d", id, w.byz[id], byz)
			}
		}
	}
	return w.rec.CheckAll(correct)
}

// counted wraps an attester to count its checks per (sender, key).
type counted[M any] struct {
	srb.Attester[M]
	ok  map[slotKey]int // successful checks
	bad int             // failed checks
}

type slotKey struct {
	sender types.ProcessID
	key    types.SeqNum
}

func count[M any](a srb.Attester[M]) *counted[M] {
	return &counted[M]{Attester: a, ok: make(map[slotKey]int)}
}

func (c *counted[M]) Check(msg M) error {
	err := c.Attester.Check(msg)
	if err != nil {
		c.bad++
		return err
	}
	l, _ := c.Link(msg)
	c.ok[slotKey{l.Sender, l.Key}]++
	return nil
}

// checkCounts asserts the dedupe-before-verify rule at one process: each
// (sender, key) verified successfully at most once, and a failed check only
// for a forged copy sent to it.
func checkCounts[M any](c *counted[M], forged int) error {
	for l, n := range c.ok {
		if n > 1 {
			return fmt.Errorf("(%v, %d) verified %d times", l.sender, l.key, n)
		}
	}
	if c.bad > forged {
		return fmt.Errorf("%d failed checks for %d forged copies", c.bad, forged)
	}
	return nil
}

func mustMembership(t *testing.T, n, f int) types.Membership {
	t.Helper()
	m, err := types.NewMembership(n, f)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	return m
}

func TestScheduleTrinc(t *testing.T) {
	m := mustMembership(t, 4, 1)
	for seed := int64(1); seed <= scheduleSeeds; seed++ {
		tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("universe: %v", err)
		}
		w := newWorld(m, seed)
		counters := make([]*counted[trincsrb.Message], m.N)
		for id := 1; id < m.N; id++ {
			counters[id] = count[trincsrb.Message](trincsrb.Attester{Dev: tu.Devices[id], Ver: tu.Verifier})
			w.cores[id] = srb.NewSequencer[trincsrb.Message](m, types.ProcessID(id), counters[id])
		}
		byz := tu.Devices[0]
		attest := func(ctr uint64, c types.SeqNum, data string) trinc.Attestation {
			att, err := byz.Attest(ctr, c, []byte(data))
			if err != nil {
				t.Fatalf("Attest: %v", err)
			}
			return att
		}
		// Gapped counter values, shown to p1 only: the chain runs through
		// Prev, and only relays carry it to p2 and p3.
		for i, c := range []types.SeqNum{2, 5, 9} {
			data := string(rune('a' + i))
			w.inject(0, 1, trincsrb.EncodeMessage(attest(0, c, data), []byte(data)))
		}
		// A substituted payload to p2, the genuine one to p3 only.
		genuine := attest(0, 11, "genuine")
		w.inject(0, 2, trincsrb.EncodeMessage(genuine, []byte("forged")))
		w.inject(0, 3, trincsrb.EncodeMessage(genuine, []byte("genuine")))
		// Another protocol's counter, and garbage.
		w.inject(0, 3, trincsrb.EncodeMessage(attest(7, 1, "other"), []byte("other")))
		w.inject(0, 1, []byte{1, 2, 3})

		w.run(t, 3)
		if err := w.check(4); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		forged := map[int]int{2: 1}
		for id := 1; id < m.N; id++ {
			if err := checkCounts(counters[id], forged[id]); err != nil {
				t.Fatalf("seed %d: p%d: %v", seed, id, err)
			}
		}
	}
}

func TestScheduleA2M(t *testing.T) {
	m := mustMembership(t, 4, 1)
	for seed := int64(1); seed <= scheduleSeeds; seed++ {
		tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("trinc universe: %v", err)
		}
		au, err := a2m.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(seed)), tu)
		if err != nil {
			t.Fatalf("a2m universe: %v", err)
		}
		w := newWorld(m, seed)
		counters := make([]*counted[a2m.Proof], m.N)
		for id := 1; id < m.N; id++ {
			// Native and TrInc-backed logs side by side, both agreed ID 1.
			var log a2m.Log = a2m.NewTrIncLog(tu.Devices[id], 1)
			if id%2 == 1 {
				log = au.Devices[id].NewLog()
			}
			counters[id] = count[a2m.Proof](a2msrb.Attester{Log: log, Ver: au.Verifier})
			w.cores[id] = srb.NewSequencer[a2m.Proof](m, types.ProcessID(id), counters[id])
		}
		log1, log2 := au.Devices[0].NewLog(), au.Devices[0].NewLog() // IDs 1 (agreed) and 2
		lookup := func(log a2m.Log, value string) a2m.Proof {
			seq, err := log.Append([]byte(value))
			if err != nil {
				t.Fatalf("Append: %v", err)
			}
			proof, err := log.Lookup(seq, nil)
			if err != nil {
				t.Fatalf("Lookup: %v", err)
			}
			return proof
		}
		inject := func(to types.ProcessID, p a2m.Proof) { w.inject(0, to, p.Encode()) }
		// A second log to split the stream: log 1 to p1, log 2 to p2.
		inject(1, lookup(log1, "left"))
		inject(2, lookup(log2, "right"))
		// A tampered proof to p2, the genuine one to p3 only.
		genuine := lookup(log1, "genuine")
		tampered := genuine
		tampered.Stmt.Value = []byte("tampered")
		inject(2, tampered)
		inject(3, genuine)
		// A third entry, to p1 only and possibly ahead of its predecessors.
		inject(1, lookup(log1, "third"))

		w.run(t, 3)
		if err := w.check(3); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		forged := map[int]int{2: 1}
		for id := 1; id < m.N; id++ {
			if err := checkCounts(counters[id], forged[id]); err != nil {
				t.Fatalf("seed %d: p%d: %v", seed, id, err)
			}
		}
	}
}

// brachaFrame hand-crafts a Bracha message (kind, sender, seq, data).
func brachaFrame(kind byte, sender types.ProcessID, seq types.SeqNum, data string) []byte {
	e := wire.NewEncoder(32 + len(data))
	e.Byte(kind)
	e.Int(int(sender))
	e.Uint64(uint64(seq))
	e.BytesField([]byte(data))
	return e.Bytes()
}

func TestScheduleBracha(t *testing.T) {
	const send, echo, ready = 1, 2, 3
	m := mustMembership(t, 4, 1)
	for seed := int64(1); seed <= scheduleSeeds; seed++ {
		w := newWorld(m, seed)
		for id := 1; id < m.N; id++ {
			c, err := bracha.NewCore(m, types.ProcessID(id))
			if err != nil {
				t.Fatalf("NewCore: %v", err)
			}
			w.cores[id] = c
		}
		// An equivocating sender: "left" to p1, "right" to p2 and p3, with
		// an ECHO for "right" to all, and one for "left" spammed at p1.
		w.inject(0, 1, brachaFrame(send, 0, 1, "left"))
		for _, to := range []types.ProcessID{2, 3} {
			w.inject(0, to, brachaFrame(send, 0, 1, "right"))
		}
		for _, to := range []types.ProcessID{1, 2, 3} {
			w.inject(0, to, brachaFrame(echo, 0, 1, "right"))
		}
		w.inject(0, 1, brachaFrame(echo, 0, 1, "left"))
		// A SEND spoofing p2's broadcast, and a READY for a value no
		// correct process holds.
		w.inject(0, 3, brachaFrame(send, 2, 1, "spoofed"))
		w.inject(0, 3, brachaFrame(ready, 1, 1, "phantom"))

		w.run(t, 3)
		if err := w.check(1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
