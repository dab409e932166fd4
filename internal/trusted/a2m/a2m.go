// Package a2m implements Attested Append-Only Memory (Chun et al., SOSP
// 2007) as the paper presents it: a trusted log to which any owner can
// append values and obtain attestations of log contents (Lookup) and of the
// current log end (End), with past entries immutable.
//
// Two implementations are provided behind the Log interface:
//
//   - Device: a native simulated A2M unit with its own signing key (the
//     hardware model, like trinc.Device).
//   - TrIncLog: the construction of Levin et al. showing TrInc suffices to
//     implement A2M. Log entries live in untrusted memory; each append is
//     attested on a contiguous TrInc counter (prev = seq-1, so the chain has
//     provably no gaps), and freshness of Lookup/End responses is provided
//     by a second "response" counter that attests the query nonce.
//
// Both produce Proof values checkable by the same Verifier, so protocols
// built on A2M run unchanged over real-A2M or TrInc-backed hardware — the
// executable form of "TrInc can implement the interface of A2M".
package a2m

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"

	"unidir/internal/obs"

	"unidir/internal/sig"
	"unidir/internal/sig/fastverify"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
	"unidir/internal/wire"
)

const attestDomain = "unidir/a2m/attest/v1"

var (
	// ErrNoSuchLog reports an operation on a log ID that was never created.
	ErrNoSuchLog = errors.New("a2m: no such log")
	// ErrNoSuchEntry reports a Lookup index beyond the log end (or 0).
	ErrNoSuchEntry = errors.New("a2m: no such entry")
	// ErrEmptyLog reports End on a log with no entries.
	ErrEmptyLog = errors.New("a2m: log is empty")
	// ErrBadProof reports a failed proof check.
	ErrBadProof = errors.New("a2m: invalid proof")
)

// Kind discriminates Lookup proofs from End proofs.
type Kind byte

// Proof kinds.
const (
	KindLookup Kind = iota + 1
	KindEnd
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindLookup:
		return "lookup"
	case KindEnd:
		return "end"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Statement is the logical content of a proof: "entry Seq of log Log on
// device Device holds Value; if Kind == KindEnd, Seq is the current log
// length; Nonce echoes the verifier's challenge".
type Statement struct {
	Kind   Kind
	Device types.ProcessID
	Log    uint64
	Seq    types.SeqNum
	Value  []byte
	Nonce  []byte
}

// Proof is evidence for a Statement, produced either natively (Sig) or via
// the TrInc construction (Data + Fresh attestations).
type Proof struct {
	Stmt Statement

	// Native A2M evidence: device signature over the statement.
	Sig []byte

	// TrInc-construction evidence: Data attests (seq, value) on the data
	// counter; Fresh attests (nonce, end) on the response counter, proving
	// the response was minted after the challenge.
	Data  *trinc.Attestation
	Fresh *trinc.Attestation
	End   types.SeqNum // log length claimed by the TrInc responder
}

func (s *Statement) appendSignedBytes(e *wire.Encoder) {
	e.String(attestDomain)
	e.Byte(byte(s.Kind))
	e.Int(int(s.Device))
	e.Uint64(s.Log)
	e.Uint64(uint64(s.Seq))
	e.BytesField(s.Value)
	e.BytesField(s.Nonce)
}

func (s *Statement) signedBytes() []byte {
	e := wire.NewEncoder(64 + len(s.Value) + len(s.Nonce))
	s.appendSignedBytes(e)
	return e.Bytes()
}

// hash returns the statement digest via a pooled encoder.
func (s *Statement) hash() [sha256.Size]byte {
	e := wire.GetEncoder()
	s.appendSignedBytes(e)
	h := sha256.Sum256(e.Bytes())
	wire.PutEncoder(e)
	return h
}

// Log is the abstract attested append-only log owned by one process.
type Log interface {
	// Owner returns the process whose hardware backs this log.
	Owner() types.ProcessID
	// ID returns the log identifier on the owner's device.
	ID() uint64
	// Append adds x at the end of the log and returns its index (1-based).
	Append(x []byte) (types.SeqNum, error)
	// Lookup returns a proof of the value at index s, bound to nonce.
	Lookup(s types.SeqNum, nonce []byte) (Proof, error)
	// End returns a proof of the last entry and current length, bound to
	// nonce.
	End(nonce []byte) (Proof, error)
}

// --- native device ---

// Device simulates a native A2M unit holding any number of logs for one
// owner process. Safe for concurrent use.
type Device struct {
	owner types.ProcessID
	ring  *sig.Keyring

	mu    sync.Mutex
	logs  map[uint64][][]byte
	base  map[uint64]uint64 // log -> entries lost to a restart (seq offset)
	next  uint64
	store trinc.CounterStore // nil: volatile device
	lg    *slog.Logger
}

// SetLogger attaches a structured logger (restart recovery and refused
// lookups are reported through it). Devices default to a discard logger.
func (d *Device) SetLogger(l *slog.Logger) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lg = obs.OrNop(l)
}

// logger returns the device's logger, defaulting to discard. Callers must
// not hold d.mu (it takes the lock itself).
func (d *Device) logger() *slog.Logger {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lg == nil {
		return obs.NopLogger()
	}
	return d.lg
}

// Owner returns the process this device belongs to.
func (d *Device) Owner() types.ProcessID { return d.owner }

// Persist attaches a counter store recording each log's end position
// write-ahead of the append, and rehydrates persisted logs: the end counter
// survives a restart (the hardware's NVRAM guarantee) while entry *values*
// do not (they lived in RAM), so a rehydrated log resumes appending above
// its old end — no sequence number is ever reused, hence no equivocation —
// but Lookup/End of pre-restart entries fail until new appends arrive.
//
// The TrInc-backed construction (TrIncLog) needs no analogue of this:
// persist its trinket instead, and a post-restart Append fails loudly with
// ErrStaleSeq (the rehydrated data counter is above the rebuilt in-memory
// chain), which is the fail-stop behavior the contiguity argument requires.
func (d *Device) Persist(cs trinc.CounterStore) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.base == nil {
		d.base = make(map[uint64]uint64)
	}
	lg := d.lg
	if lg == nil {
		lg = obs.NopLogger()
	}
	for id, end := range cs.Last() {
		if end > d.base[id]+uint64(len(d.logs[id])) {
			d.base[id] = end - uint64(len(d.logs[id]))
			// Entry values below base lived in RAM and are gone; only the
			// monotone end survived. Worth a line: lookups below base will
			// now fail until fresh appends arrive.
			lg.Info("rehydrated log above lost entries", "log", id, "end", end, "lost", d.base[id])
		}
		if _, ok := d.logs[id]; !ok {
			d.logs[id] = nil
		}
		if id > d.next {
			d.next = id
		}
	}
	d.store = cs
	return nil
}

// CreateLog allocates a fresh empty log and returns its ID.
func (d *Device) CreateLog() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.next++
	id := d.next
	d.logs[id] = nil
	return id
}

// Append adds x to log id.
func (d *Device) Append(id uint64, x []byte) (types.SeqNum, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	log, ok := d.logs[id]
	if !ok {
		return 0, fmt.Errorf("%w: id=%d", ErrNoSuchLog, id)
	}
	seq := types.SeqNum(d.base[id] + uint64(len(log)) + 1)
	if d.store != nil {
		// Write-ahead, like trinc.Device.Attest: the new end must be durable
		// before any proof of this entry can exist.
		if err := d.store.Record(id, uint64(seq)); err != nil {
			return 0, fmt.Errorf("a2m: persist log end: %w", err)
		}
	}
	cp := append([]byte(nil), x...)
	d.logs[id] = append(log, cp)
	return seq, nil
}

// Lookup returns a signed proof of the value at index s of log id. Entries
// below a restarted log's base are gone (their values lived in RAM): the
// device refuses rather than invent them.
func (d *Device) Lookup(id uint64, s types.SeqNum, nonce []byte) (Proof, error) {
	d.mu.Lock()
	log, ok := d.logs[id]
	if !ok {
		d.mu.Unlock()
		return Proof{}, fmt.Errorf("%w: id=%d", ErrNoSuchLog, id)
	}
	base := d.base[id]
	if s == 0 || uint64(s) > base+uint64(len(log)) {
		d.mu.Unlock()
		return Proof{}, fmt.Errorf("%w: s=%d len=%d", ErrNoSuchEntry, s, base+uint64(len(log)))
	}
	if uint64(s) <= base {
		d.mu.Unlock()
		d.logger().Debug("refusing lookup below restart base", "log", id, "seq", s, "base", base)
		return Proof{}, fmt.Errorf("%w: s=%d predates restart (base=%d)", ErrNoSuchEntry, s, base)
	}
	val := log[uint64(s)-base-1]
	d.mu.Unlock()
	return d.prove(KindLookup, id, s, val, nonce), nil
}

// End returns a signed proof of the last entry of log id.
func (d *Device) End(id uint64, nonce []byte) (Proof, error) {
	d.mu.Lock()
	log, ok := d.logs[id]
	if !ok {
		d.mu.Unlock()
		return Proof{}, fmt.Errorf("%w: id=%d", ErrNoSuchLog, id)
	}
	if len(log) == 0 {
		// Either never appended, or every entry predates a restart; in both
		// cases there is no value to prove.
		d.mu.Unlock()
		return Proof{}, fmt.Errorf("%w: id=%d", ErrEmptyLog, id)
	}
	s := types.SeqNum(d.base[id] + uint64(len(log)))
	val := log[len(log)-1]
	d.mu.Unlock()
	return d.prove(KindEnd, id, s, val, nonce), nil
}

func (d *Device) prove(kind Kind, id uint64, s types.SeqNum, val, nonce []byte) Proof {
	stmt := Statement{
		Kind:   kind,
		Device: d.owner,
		Log:    id,
		Seq:    s,
		Value:  append([]byte(nil), val...),
		Nonce:  append([]byte(nil), nonce...),
	}
	return Proof{Stmt: stmt, Sig: d.ring.Sign(stmt.signedBytes())}
}

// deviceLog adapts one log of a Device to the Log interface.
type deviceLog struct {
	dev *Device
	id  uint64
}

// NewLog creates a fresh log on the device and returns it behind the Log
// interface.
func (d *Device) NewLog() Log {
	return &deviceLog{dev: d, id: d.CreateLog()}
}

func (l *deviceLog) Owner() types.ProcessID { return l.dev.owner }
func (l *deviceLog) ID() uint64             { return l.id }
func (l *deviceLog) Append(x []byte) (types.SeqNum, error) {
	return l.dev.Append(l.id, x)
}
func (l *deviceLog) Lookup(s types.SeqNum, nonce []byte) (Proof, error) {
	return l.dev.Lookup(l.id, s, nonce)
}
func (l *deviceLog) End(nonce []byte) (Proof, error) {
	return l.dev.End(l.id, nonce)
}

// --- TrInc construction (Levin et al.) ---

// trincEntry is one untrusted-memory log entry with its append attestation.
type trincEntry struct {
	value []byte
	att   trinc.Attestation
}

// TrIncLog implements Log from a TrInc trinket. It uses two counters on the
// trinket: dataCounter holds one contiguous attestation per entry (the
// append chain), and respCounter attests freshness of query responses.
type TrIncLog struct {
	dev         *trinc.Device
	id          uint64
	dataCounter uint64
	respCounter uint64

	mu      sync.Mutex
	entries []trincEntry
	resp    types.SeqNum // last response counter value used
}

var _ Log = (*TrIncLog)(nil)

// NewTrIncLog builds an attested log from a trinket. id must be unique per
// trinket (it selects the counter pair: counters 2*id and 2*id+1).
func NewTrIncLog(dev *trinc.Device, id uint64) *TrIncLog {
	return &TrIncLog{
		dev:         dev,
		id:          id,
		dataCounter: 2 * id,
		respCounter: 2*id + 1,
	}
}

// Owner returns the trinket owner.
func (l *TrIncLog) Owner() types.ProcessID { return l.dev.Owner() }

// ID returns the log identifier.
func (l *TrIncLog) ID() uint64 { return l.id }

// dataBinding is the message attested on the data counter for an append.
func dataBinding(log uint64, seq types.SeqNum, value []byte) []byte {
	e := wire.NewEncoder(32 + len(value))
	e.String("a2m/trinc/data")
	e.Uint64(log)
	e.Uint64(uint64(seq))
	e.BytesField(value)
	return e.Bytes()
}

// respBinding is the message attested on the response counter for a query
// response: it binds the nonce, the claimed log end, and the statement hash.
func respBinding(log uint64, nonce []byte, end types.SeqNum, stmtHash [sha256.Size]byte) []byte {
	e := wire.NewEncoder(64 + len(nonce))
	e.String("a2m/trinc/resp")
	e.Uint64(log)
	e.BytesField(nonce)
	e.Uint64(uint64(end))
	e.BytesField(stmtHash[:])
	return e.Bytes()
}

// Append attests x at the next contiguous data-counter value and stores it.
func (l *TrIncLog) Append(x []byte) (types.SeqNum, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := types.SeqNum(len(l.entries) + 1)
	cp := append([]byte(nil), x...)
	att, err := l.dev.Attest(l.dataCounter, seq, dataBinding(l.id, seq, cp))
	if err != nil {
		return 0, fmt.Errorf("a2m: trinc append attest: %w", err)
	}
	if att.Prev != seq-1 {
		// Cannot happen unless the counter was used outside this log; the
		// contiguity of the chain is the crux of the construction, so fail
		// loudly rather than produce an unverifiable log.
		return 0, fmt.Errorf("a2m: data counter not contiguous: prev=%d want %d", att.Prev, seq-1)
	}
	l.entries = append(l.entries, trincEntry{value: cp, att: att})
	return seq, nil
}

// Lookup returns the stored append attestation for entry s plus a fresh
// response attestation binding the nonce.
func (l *TrIncLog) Lookup(s types.SeqNum, nonce []byte) (Proof, error) {
	return l.respond(KindLookup, s, nonce)
}

// End returns a proof for the last entry.
func (l *TrIncLog) End(nonce []byte) (Proof, error) {
	l.mu.Lock()
	n := len(l.entries)
	l.mu.Unlock()
	if n == 0 {
		return Proof{}, fmt.Errorf("%w: id=%d", ErrEmptyLog, l.id)
	}
	return l.respond(KindEnd, types.SeqNum(n), nonce)
}

func (l *TrIncLog) respond(kind Kind, s types.SeqNum, nonce []byte) (Proof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s == 0 || int(s) > len(l.entries) {
		return Proof{}, fmt.Errorf("%w: s=%d len=%d", ErrNoSuchEntry, s, len(l.entries))
	}
	entry := l.entries[s-1]
	end := types.SeqNum(len(l.entries))
	stmt := Statement{
		Kind:   kind,
		Device: l.dev.Owner(),
		Log:    l.id,
		Seq:    s,
		Value:  append([]byte(nil), entry.value...),
		Nonce:  append([]byte(nil), nonce...),
	}
	stmtHash := stmt.hash()
	l.resp++
	fresh, err := l.dev.Attest(l.respCounter, l.resp, respBinding(l.id, nonce, end, stmtHash))
	if err != nil {
		return Proof{}, fmt.Errorf("a2m: trinc response attest: %w", err)
	}
	data := entry.att
	return Proof{Stmt: stmt, Data: &data, Fresh: &fresh, End: end}, nil
}

// --- verification ---

// Verifier checks proofs from both native devices and TrInc-backed logs.
// Native device signatures are checked through fastverify with its positive
// cache off, as trinc.Verifier checks TrInc attestations: only the negative
// cache of failed checks is kept.
type Verifier struct {
	native *sig.Keyring         // verifies native device signatures; nil if unused
	fv     *fastverify.Verifier // negative-cached view of native; nil falls back to native
	trinc  *trinc.Verifier      // verifies trinc attestations; nil if unused
}

// verifyNative checks a native device signature through the fast path.
func (v *Verifier) verifyNative(from types.ProcessID, msg, sig []byte) error {
	if v.fv != nil {
		return v.fv.Verify(from, msg, sig)
	}
	return v.native.Verify(from, msg, sig)
}

// Check verifies p against its embedded statement. A proof must verify
// under whichever evidence it carries; a proof with no evidence fails.
func (v *Verifier) Check(p Proof) error {
	s := &p.Stmt
	if s.Kind != KindLookup && s.Kind != KindEnd {
		return fmt.Errorf("%w: kind %v", ErrBadProof, s.Kind)
	}
	if s.Seq == 0 {
		return fmt.Errorf("%w: seq 0", ErrBadProof)
	}
	switch {
	case p.Sig != nil:
		if v.native == nil {
			return fmt.Errorf("%w: no native verifier configured", ErrBadProof)
		}
		e := wire.GetEncoder()
		s.appendSignedBytes(e)
		err := v.verifyNative(s.Device, e.Bytes(), p.Sig)
		wire.PutEncoder(e)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadProof, err)
		}
		return nil
	case p.Data != nil && p.Fresh != nil:
		return v.checkTrInc(p)
	default:
		return fmt.Errorf("%w: no evidence", ErrBadProof)
	}
}

func (v *Verifier) checkTrInc(p Proof) error {
	if v.trinc == nil {
		return fmt.Errorf("%w: no trinc verifier configured", ErrBadProof)
	}
	s := &p.Stmt
	// 1. The data attestation binds (seq, value) at exactly counter position
	//    seq with prev = seq-1: a contiguous chain element, so it is the
	//    unique value ever attested at this position of this log.
	if p.Data.Trinket != s.Device {
		return fmt.Errorf("%w: data attestation from %v, statement device %v", ErrBadProof, p.Data.Trinket, s.Device)
	}
	if p.Data.Seq != s.Seq || p.Data.Prev != s.Seq-1 {
		return fmt.Errorf("%w: data attestation seq=%d prev=%d, want seq=%d prev=%d",
			ErrBadProof, p.Data.Seq, p.Data.Prev, s.Seq, s.Seq-1)
	}
	if err := v.trinc.CheckMessage(*p.Data, dataBinding(s.Log, s.Seq, s.Value)); err != nil {
		return fmt.Errorf("%w: data attestation: %v", ErrBadProof, err)
	}
	// 2. The freshness attestation binds the nonce, claimed end, and the
	//    statement itself, minted by the same trinket.
	if p.Fresh.Trinket != s.Device {
		return fmt.Errorf("%w: fresh attestation from %v, statement device %v", ErrBadProof, p.Fresh.Trinket, s.Device)
	}
	stmtHash := s.hash()
	if err := v.trinc.CheckMessage(*p.Fresh, respBinding(s.Log, s.Nonce, p.End, stmtHash)); err != nil {
		return fmt.Errorf("%w: fresh attestation: %v", ErrBadProof, err)
	}
	// 3. End proofs must claim seq equal to the attested end.
	if s.Kind == KindEnd && s.Seq != p.End {
		return fmt.Errorf("%w: end proof seq=%d but attested end=%d", ErrBadProof, s.Seq, p.End)
	}
	if s.Kind == KindLookup && s.Seq > p.End {
		return fmt.Errorf("%w: lookup seq=%d beyond attested end=%d", ErrBadProof, s.Seq, p.End)
	}
	return nil
}

// Universe provisions native A2M devices for a membership plus a Verifier
// that also accepts TrInc-backed proofs from the given trinc universe
// (optional; pass nil if only native devices are used).
type Universe struct {
	Devices  []*Device // indexed by ProcessID
	Verifier *Verifier
}

// NewUniverse provisions one native device per member. If tu is non-nil,
// the returned Verifier also accepts proofs from tu's trinkets.
func NewUniverse(m types.Membership, scheme sig.Scheme, rng *rand.Rand, tu *trinc.Universe) (*Universe, error) {
	rings, err := sig.NewKeyrings(m, scheme, rng)
	if err != nil {
		return nil, fmt.Errorf("a2m: provision device keys: %w", err)
	}
	u := &Universe{
		Devices:  make([]*Device, m.N),
		Verifier: &Verifier{native: rings[0], fv: fastverify.New(rings[0], fastverify.WithCacheSize(0))},
	}
	if tu != nil {
		u.Verifier.trinc = tu.Verifier
	}
	for i := 0; i < m.N; i++ {
		u.Devices[i] = &Device{
			owner: types.ProcessID(i),
			ring:  rings[i],
			logs:  make(map[uint64][][]byte),
		}
	}
	return u, nil
}

// NewTrIncVerifier returns a Verifier accepting only TrInc-backed proofs.
func NewTrIncVerifier(tv *trinc.Verifier) *Verifier {
	return &Verifier{trinc: tv}
}
