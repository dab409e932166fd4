// Package trinc implements the TrInc trusted incrementer of Levin et al.
// (NSDI 2009), in the simplified form the paper uses (Figure "TrInc
// Interface"): each process p owns a tamper-proof Trinket T_p holding
// monotonic counters. Attest(c, m) returns an attestation binding m to
// counter value c, valid only if c is strictly greater than every previously
// attested value; the attestation also names prev, the last attested value,
// so verifiers can detect gaps. Because the trinket never signs two
// attestations with the same counter value, a Byzantine owner cannot bind two
// different messages to one sequence number — non-equivocation.
//
// Substitution note (see DESIGN.md): the hardware is simulated as an
// in-process Device holding its own signing key, distinct from the owning
// process's key. Byzantine processes may call Attest with arbitrary
// arguments — the Device enforces monotonicity — but cannot forge
// attestations, because only the Device can produce its signature. This
// preserves exactly the interface contract the paper's theory relies on.
//
// Like real TrInc, a Device holds multiple independent counters so that one
// piece of hardware can serve several protocol instances.
package trinc

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"unidir/internal/sig"
	"unidir/internal/sig/fastverify"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// Domain separation tag for attestation signatures.
const attestDomain = "unidir/trinc/attest/v1"

var (
	// ErrStaleSeq reports an Attest call whose sequence number does not
	// exceed the last attested value for the counter.
	ErrStaleSeq = errors.New("trinc: sequence number not greater than last attested")
	// ErrBadAttestation reports a failed attestation check.
	ErrBadAttestation = errors.New("trinc: invalid attestation")
)

// Attestation is a trinket's signed statement that message hash MsgHash was
// bound to counter value Seq on counter Counter of trinket Trinket, and that
// the previous attested value on that counter was Prev (0 if none). Prev is
// half-open interval evidence: nothing was, or ever will be, attested in
// (Prev, Seq).
type Attestation struct {
	Trinket types.ProcessID
	Counter uint64
	Prev    types.SeqNum
	Seq     types.SeqNum
	MsgHash [sha256.Size]byte
	Sig     []byte
}

// appendSignedBytes appends the canonical byte string the trinket signs.
func (a *Attestation) appendSignedBytes(e *wire.Encoder) {
	e.String(attestDomain)
	e.Int(int(a.Trinket))
	e.Uint64(a.Counter)
	e.Uint64(uint64(a.Prev))
	e.Uint64(uint64(a.Seq))
	e.BytesField(a.MsgHash[:])
}

// signedBytes returns the canonical byte string the trinket signs.
func (a *Attestation) signedBytes() []byte {
	e := wire.NewEncoder(len(attestDomain) + 64)
	a.appendSignedBytes(e)
	return e.Bytes()
}

// Encode returns the wire encoding of the attestation.
func (a *Attestation) Encode() []byte {
	e := wire.NewEncoder(96 + len(a.Sig))
	e.Int(int(a.Trinket))
	e.Uint64(a.Counter)
	e.Uint64(uint64(a.Prev))
	e.Uint64(uint64(a.Seq))
	e.BytesField(a.MsgHash[:])
	e.BytesField(a.Sig)
	return e.Bytes()
}

// DecodeAttestation parses an attestation from b.
func DecodeAttestation(b []byte) (Attestation, error) {
	d := wire.NewDecoder(b)
	var a Attestation
	a.Trinket = types.ProcessID(d.Int())
	a.Counter = d.Uint64()
	a.Prev = types.SeqNum(d.Uint64())
	a.Seq = types.SeqNum(d.Uint64())
	h := d.BytesField()
	a.Sig = append([]byte(nil), d.BytesField()...)
	if err := d.Finish(); err != nil {
		return Attestation{}, fmt.Errorf("trinc: decode attestation: %w", err)
	}
	if len(h) != sha256.Size {
		return Attestation{}, fmt.Errorf("%w: hash length %d", ErrBadAttestation, len(h))
	}
	copy(a.MsgHash[:], h)
	return a, nil
}

// HashMessage returns the message digest attestations bind to.
func HashMessage(m []byte) [sha256.Size]byte { return sha256.Sum256(m) }

// CounterStore persists counter advances across device restarts. Record is
// called with every advance *before* the matching attestation is released,
// so a crash can lose an attested-but-unsent message but never resurrect a
// counter value; Last returns the highest recorded value per counter. See
// internal/trusted/ctrstore for the file-backed implementation.
type CounterStore interface {
	Record(counter, value uint64) error
	Last() map[uint64]uint64
}

// Device simulates one process's trinket. Devices are safe for concurrent
// use. Counters are created implicitly on first use, starting at 0 (so the
// first attestable sequence number is 1).
type Device struct {
	owner types.ProcessID
	ring  *sig.Keyring // device-private keyring, never exposed

	mu    sync.Mutex
	last  map[uint64]types.SeqNum // counter -> last attested value
	store CounterStore            // nil: volatile device (the pre-persistence model)
}

// Owner returns the process this trinket belongs to.
func (d *Device) Owner() types.ProcessID { return d.owner }

// Persist attaches a counter store to the device and rehydrates every
// counter to at least its persisted maximum — the software form of the
// hardware guarantee that a trinket's NVRAM counter survives reboot. From
// here on, every Attest write-ahead-logs the advance before signing: if the
// log write fails the attestation is refused (fail-stop), so no released
// attestation can ever be below a future rehydrated counter.
func (d *Device) Persist(cs CounterStore) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for counter, v := range cs.Last() {
		if types.SeqNum(v) > d.last[counter] {
			d.last[counter] = types.SeqNum(v)
		}
	}
	d.store = cs
	return nil
}

// Attest binds message m to sequence number c on the given counter and
// returns the signed attestation. It fails with ErrStaleSeq if c is not
// strictly greater than the last value attested on that counter. Gaps are
// allowed, matching TrInc; verifiers see them via the Prev field.
func (d *Device) Attest(counter uint64, c types.SeqNum, m []byte) (Attestation, error) {
	if c == 0 {
		return Attestation{}, fmt.Errorf("%w: sequence numbers start at 1", ErrStaleSeq)
	}
	d.mu.Lock()
	prev := d.last[counter]
	if c <= prev {
		d.mu.Unlock()
		return Attestation{}, fmt.Errorf("%w: c=%d last=%d", ErrStaleSeq, c, prev)
	}
	if d.store != nil {
		// Write-ahead: the advance must be durable before the attestation
		// exists, else a crash between signing and logging could let the
		// rehydrated counter re-attest this value.
		if err := d.store.Record(counter, uint64(c)); err != nil {
			d.mu.Unlock()
			return Attestation{}, fmt.Errorf("trinc: persist counter advance: %w", err)
		}
	}
	d.last[counter] = c
	d.mu.Unlock()

	a := Attestation{
		Trinket: d.owner,
		Counter: counter,
		Prev:    prev,
		Seq:     c,
		MsgHash: HashMessage(m),
	}
	e := wire.GetEncoder()
	a.appendSignedBytes(e)
	a.Sig = d.ring.Sign(e.Bytes())
	wire.PutEncoder(e)
	return a, nil
}

// LastAttested returns the last sequence number attested on counter (0 if
// none).
func (d *Device) LastAttested(counter uint64) types.SeqNum {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last[counter]
}

// Verifier checks attestations from every trinket in a membership. It holds
// only public verification material and is safe for concurrent use.
//
// Every signature check goes through a fastverify fast path with its
// positive cache off. The protocols drop a replayed attestation by its
// counter value or key before checking it, so a verified-signature cache hit
// almost never (0 % on the benchmark's workloads) while it held most of a
// replica's live heap. The negative cache stays, so a replayed forgery costs
// one real verification, and CheckMessages still fans out across workers.
type Verifier struct {
	ring *sig.Keyring         // any device keyring verifies all device signatures
	fv   *fastverify.Verifier // batched view of ring; nil falls back to ring
}

// NewVerifier wraps a device keyring in a verifier. Exposed for tests and
// harnesses that provision keyrings directly; NewUniverse calls it for the
// standard deployment.
func NewVerifier(ring *sig.Keyring) *Verifier {
	return &Verifier{ring: ring, fv: fastverify.New(ring, fastverify.WithCacheSize(0))}
}

// FastPath exposes the underlying fastverify.Verifier (nil when the
// verifier was built without one), so harnesses can read cache stats or
// attach metrics.
func (v *Verifier) FastPath() *fastverify.Verifier { return v.fv }

// verifySig checks one trinket signature through the fast path.
func (v *Verifier) verifySig(from types.ProcessID, msg, sig []byte) error {
	if v.fv != nil {
		return v.fv.Verify(from, msg, sig)
	}
	return v.ring.Verify(from, msg, sig)
}

// checkShape validates the signature-independent parts of an attestation.
func checkShape(a *Attestation) error {
	if a.Seq == 0 || a.Prev >= a.Seq {
		return fmt.Errorf("%w: prev=%d seq=%d", ErrBadAttestation, a.Prev, a.Seq)
	}
	return nil
}

// Check verifies that a is a genuine attestation produced by trinket
// a.Trinket. It does not inspect the message; use CheckMessage to also bind
// a concrete message.
func (v *Verifier) Check(a Attestation) error {
	if err := checkShape(&a); err != nil {
		return err
	}
	e := wire.GetEncoder()
	a.appendSignedBytes(e)
	err := v.verifySig(a.Trinket, e.Bytes(), a.Sig)
	wire.PutEncoder(e)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadAttestation, err)
	}
	return nil
}

// CheckMessage verifies the attestation and that it binds message m.
// This is the paper's CheckAttestation(a, q) with q = a.Trinket.
func (v *Verifier) CheckMessage(a Attestation, m []byte) error {
	if HashMessage(m) != a.MsgHash {
		return fmt.Errorf("%w: message hash mismatch", ErrBadAttestation)
	}
	return v.Check(a)
}

// Attested pairs an attestation with the message it claims to bind, for
// batch checking.
type Attested struct {
	Att Attestation
	Msg []byte
}

// CheckMessages verifies a set of attested messages as one batch: shape
// and hash bindings are checked first (cheap, sequential), then all
// signatures are verified through the fast path, fanning out across
// workers for large batches and short-circuiting on the first failure.
// Use for quorum certificates (minbft NEW-VIEW) where one bad element
// rejects the whole set.
func (v *Verifier) CheckMessages(items []Attested) error {
	if len(items) == 0 {
		return nil
	}
	sigItems := make([]fastverify.Item, 0, len(items))
	encs := make([]*wire.Encoder, 0, len(items))
	defer func() {
		for _, e := range encs {
			wire.PutEncoder(e)
		}
	}()
	for i := range items {
		a := &items[i].Att
		if err := checkShape(a); err != nil {
			return err
		}
		if HashMessage(items[i].Msg) != a.MsgHash {
			return fmt.Errorf("%w: message hash mismatch", ErrBadAttestation)
		}
		e := wire.GetEncoder()
		a.appendSignedBytes(e)
		encs = append(encs, e)
		sigItems = append(sigItems, fastverify.Item{From: a.Trinket, Msg: e.Bytes(), Sig: a.Sig})
	}
	var err error
	if v.fv != nil {
		err = v.fv.VerifyAll(sigItems)
	} else {
		for _, it := range sigItems {
			if err = v.ring.Verify(it.From, it.Msg, it.Sig); err != nil {
				break
			}
		}
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadAttestation, err)
	}
	return nil
}

// Universe is a full deployment of trinkets: one Device per process and the
// shared Verifier. Created by a trusted manufacturer at system setup, as in
// the TrInc deployment model.
type Universe struct {
	Devices  []*Device // indexed by ProcessID
	Verifier *Verifier
}

// NewUniverse provisions one trinket per member of m. Device keys are
// independent of any process signing keys. Pass a seeded rng for
// reproducibility or nil for defaults.
func NewUniverse(m types.Membership, scheme sig.Scheme, rng *rand.Rand) (*Universe, error) {
	rings, err := sig.NewKeyrings(m, scheme, rng)
	if err != nil {
		return nil, fmt.Errorf("trinc: provision device keys: %w", err)
	}
	u := &Universe{
		Devices:  make([]*Device, m.N),
		Verifier: NewVerifier(rings[0]),
	}
	for i := 0; i < m.N; i++ {
		u.Devices[i] = &Device{
			owner: types.ProcessID(i),
			ring:  rings[i],
			last:  make(map[uint64]types.SeqNum),
		}
	}
	return u, nil
}
