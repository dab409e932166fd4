package trinc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"unidir/internal/sig"
	"unidir/internal/types"
)

func newTestUniverse(t *testing.T, n int) *Universe {
	t.Helper()
	m, err := types.NewMembership(n, (n-1)/2)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	u, err := NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("NewUniverse: %v", err)
	}
	return u
}

func TestAttestAndCheck(t *testing.T) {
	u := newTestUniverse(t, 4)
	d := u.Devices[2]

	a, err := d.Attest(0, 1, []byte("hello"))
	if err != nil {
		t.Fatalf("Attest: %v", err)
	}
	if a.Trinket != 2 || a.Seq != 1 || a.Prev != 0 {
		t.Fatalf("attestation fields = %+v", a)
	}
	if err := u.Verifier.CheckMessage(a, []byte("hello")); err != nil {
		t.Fatalf("CheckMessage: %v", err)
	}
	if err := u.Verifier.CheckMessage(a, []byte("other")); err == nil {
		t.Fatal("CheckMessage accepted wrong message")
	}
}

func TestAttestZeroSeqRejected(t *testing.T) {
	u := newTestUniverse(t, 3)
	if _, err := u.Devices[0].Attest(0, 0, []byte("x")); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("Attest(0) err = %v, want ErrStaleSeq", err)
	}
}

func TestNonEquivocation(t *testing.T) {
	// The defining property: no two attestations for the same counter value,
	// even for a Byzantine owner replaying the same or different messages.
	u := newTestUniverse(t, 3)
	d := u.Devices[0]
	if _, err := d.Attest(0, 5, []byte("first")); err != nil {
		t.Fatalf("Attest: %v", err)
	}
	if _, err := d.Attest(0, 5, []byte("conflicting")); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("re-attest same seq err = %v, want ErrStaleSeq", err)
	}
	if _, err := d.Attest(0, 4, []byte("older")); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("attest lower seq err = %v, want ErrStaleSeq", err)
	}
	if _, err := d.Attest(0, 6, []byte("next")); err != nil {
		t.Fatalf("attest higher seq: %v", err)
	}
}

func TestGapEvidenceInPrev(t *testing.T) {
	u := newTestUniverse(t, 3)
	d := u.Devices[0]
	if _, err := d.Attest(7, 1, []byte("a")); err != nil {
		t.Fatalf("Attest: %v", err)
	}
	a, err := d.Attest(7, 10, []byte("b"))
	if err != nil {
		t.Fatalf("Attest: %v", err)
	}
	if a.Prev != 1 || a.Seq != 10 {
		t.Fatalf("gap attestation = prev %d seq %d, want prev 1 seq 10", a.Prev, a.Seq)
	}
}

func TestCountersAreIndependent(t *testing.T) {
	u := newTestUniverse(t, 3)
	d := u.Devices[1]
	if _, err := d.Attest(1, 3, []byte("a")); err != nil {
		t.Fatalf("Attest counter 1: %v", err)
	}
	// Counter 2 is untouched by counter 1's advance.
	if _, err := d.Attest(2, 1, []byte("b")); err != nil {
		t.Fatalf("Attest counter 2: %v", err)
	}
	if got := d.LastAttested(1); got != 3 {
		t.Fatalf("LastAttested(1) = %d, want 3", got)
	}
	if got := d.LastAttested(2); got != 1 {
		t.Fatalf("LastAttested(2) = %d, want 1", got)
	}
}

func TestForgedAttestationRejected(t *testing.T) {
	u := newTestUniverse(t, 4)
	a, err := u.Devices[0].Attest(0, 1, []byte("legit"))
	if err != nil {
		t.Fatalf("Attest: %v", err)
	}

	tamper := func(name string, mutate func(*Attestation)) {
		forged := a
		forged.Sig = append([]byte(nil), a.Sig...)
		mutate(&forged)
		if err := u.Verifier.Check(forged); err == nil {
			t.Errorf("%s: forged attestation accepted", name)
		}
	}
	tamper("reassign trinket", func(f *Attestation) { f.Trinket = 1 })
	tamper("bump seq", func(f *Attestation) { f.Seq = 2 })
	tamper("lower prev", func(f *Attestation) { f.Prev = 0; f.Seq = 1; f.MsgHash = HashMessage([]byte("x")) })
	tamper("flip sig bit", func(f *Attestation) { f.Sig[0] ^= 1 })
	tamper("swap hash", func(f *Attestation) { f.MsgHash = HashMessage([]byte("evil")) })
	tamper("counter change", func(f *Attestation) { f.Counter = 9 })
}

// The verifier keeps no verified-signature cache: every check of a genuine
// attestation is a real verification. A failed check is still remembered, so
// a replayed forgery costs one.
func TestVerifierCachesOnlyFailures(t *testing.T) {
	t.Setenv("UNIDIR_FASTVERIFY", "on")
	u := newTestUniverse(t, 3)
	a, err := u.Devices[0].Attest(0, 1, []byte("m"))
	if err != nil {
		t.Fatalf("Attest: %v", err)
	}
	for range 2 {
		if err := u.Verifier.CheckMessage(a, []byte("m")); err != nil {
			t.Fatalf("CheckMessage: %v", err)
		}
	}
	if st := u.Verifier.FastPath().Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("two checks of one attestation: %+v, want 2 misses and no hits", st)
	}
	forged := a
	forged.Sig = append([]byte(nil), a.Sig...)
	forged.Sig[0] ^= 1
	for range 2 {
		if err := u.Verifier.Check(forged); err == nil {
			t.Fatal("forged attestation accepted")
		}
	}
	if st := u.Verifier.FastPath().Stats(); st.Misses != 3 || st.NegHits != 1 {
		t.Fatalf("two checks of one forgery: %+v, want 1 more miss and 1 negative hit", st)
	}
}

func TestCheckRejectsMalformedSeqPrev(t *testing.T) {
	u := newTestUniverse(t, 3)
	bad := Attestation{Trinket: 0, Prev: 3, Seq: 3}
	if err := u.Verifier.Check(bad); !errors.Is(err, ErrBadAttestation) {
		t.Fatalf("Check(prev==seq) err = %v, want ErrBadAttestation", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	u := newTestUniverse(t, 4)
	a, err := u.Devices[3].Attest(12, 42, []byte("payload"))
	if err != nil {
		t.Fatalf("Attest: %v", err)
	}
	b := a.Encode()
	got, err := DecodeAttestation(b)
	if err != nil {
		t.Fatalf("DecodeAttestation: %v", err)
	}
	if got.Trinket != a.Trinket || got.Counter != a.Counter || got.Prev != a.Prev ||
		got.Seq != a.Seq || got.MsgHash != a.MsgHash || !bytes.Equal(got.Sig, a.Sig) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, a)
	}
	if err := u.Verifier.Check(got); err != nil {
		t.Fatalf("Check decoded: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1, 2, 3}, make([]byte, 40)} {
		if _, err := DecodeAttestation(b); err == nil {
			t.Fatalf("DecodeAttestation(%v) accepted garbage", b)
		}
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	// Property: any attestation round-trips through the wire encoding.
	f := func(trinket uint8, counter uint64, prev uint32, gap uint8, hash [32]byte, sigBytes []byte) bool {
		a := Attestation{
			Trinket: types.ProcessID(trinket),
			Counter: counter,
			Prev:    types.SeqNum(prev),
			Seq:     types.SeqNum(uint64(prev) + uint64(gap) + 1),
			MsgHash: hash,
			Sig:     sigBytes,
		}
		got, err := DecodeAttestation(a.Encode())
		if err != nil {
			return false
		}
		return got.Trinket == a.Trinket && got.Counter == a.Counter &&
			got.Prev == a.Prev && got.Seq == a.Seq && got.MsgHash == a.MsgHash &&
			bytes.Equal(got.Sig, a.Sig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMonotonicity(t *testing.T) {
	// Property: for any sequence of attest attempts, the set of granted
	// sequence numbers is strictly increasing in grant order.
	f := func(seqs []uint16) bool {
		u := newTestUniverse(t, 1)
		d := u.Devices[0]
		var granted []types.SeqNum
		for _, s := range seqs {
			c := types.SeqNum(s)
			a, err := d.Attest(0, c, []byte("m"))
			if err == nil {
				granted = append(granted, a.Seq)
			}
		}
		for i := 1; i < len(granted); i++ {
			if granted[i] <= granted[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAttestUniqueSeqs(t *testing.T) {
	// Property under concurrency: even with racing Attest calls, no two
	// attestations are granted for the same counter value.
	u := newTestUniverse(t, 1)
	d := u.Devices[0]
	const workers = 8
	const perWorker = 100

	var mu sync.Mutex
	seen := make(map[types.SeqNum]int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWorker; i++ {
				a, err := d.Attest(0, types.SeqNum(i), []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					continue
				}
				mu.Lock()
				seen[a.Seq]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for seq, count := range seen {
		if count > 1 {
			t.Fatalf("sequence number %d attested %d times", seq, count)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no attestations granted at all")
	}
}

func TestEd25519SchemeWorks(t *testing.T) {
	m, err := types.NewMembership(3, 1)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	u, err := NewUniverse(m, sig.Ed25519, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("NewUniverse: %v", err)
	}
	a, err := u.Devices[0].Attest(0, 1, []byte("ed25519"))
	if err != nil {
		t.Fatalf("Attest: %v", err)
	}
	if err := u.Verifier.CheckMessage(a, []byte("ed25519")); err != nil {
		t.Fatalf("CheckMessage: %v", err)
	}
	a.Sig[0] ^= 1
	if err := u.Verifier.Check(a); err == nil {
		t.Fatal("tampered ed25519 attestation accepted")
	}
}
