// Package fastverify is the signature-verification fast path shared by
// every SRB/SMR protocol in the library: a bounded verified-signature cache
// plus a concurrent batch verifier, layered over any sig.Verifier.
//
// Motivation: in hybrid-trust BFT systems signature verification dominates
// the critical path, and uniround re-verifies the *same* signature many
// times — an echo signature is verified once when the echo arrives, again
// inside every L1 proof that carries it, and again inside every L1 of every
// L2 proof. The cache collapses all of these to one real verification per
// process; the batch verifier fans independent verifications of a proof's
// signature set across GOMAXPROCS workers. The TrInc and A2M verifiers turn
// the positive cache off (WithCacheSize(0)): their protocols drop a
// re-presented attestation before checking it, so it would only hold memory.
//
// Safety argument (see DESIGN.md §5):
//
//   - The cache key is a SHA-256 binding of (signer, message, signature).
//     A hit therefore asserts exactly "this triple verified before" — the
//     same statement the underlying Verifier makes — and nothing about any
//     other signer or message, so there is no cross-signer or cross-message
//     pollution. (Finding a different triple with the same key is a SHA-256
//     collision, which the library already assumes away everywhere message
//     digests are signed.)
//   - Failures are never cached as successes; they go to a separate,
//     smaller negative cache. A negative hit is sound because verification
//     is deterministic: the same triple always fails. Byzantine garbage can
//     at worst churn the negative cache, whose capacity is capped
//     independently so it cannot evict positive entries.
//   - Both caches are bounded LRUs: an eviction costs a re-verification,
//     never a wrong answer.
//
// The fast path can be disabled for A/B measurement (and as an operational
// escape hatch) by setting UNIDIR_FASTVERIFY=off in the environment, which
// turns New into a transparent pass-through to the inner verifier.
package fastverify

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"unidir/internal/obs"
	"unidir/internal/obs/knob"
	"unidir/internal/sig"
	"unidir/internal/types"
)

// Item is one signature verification: sig is checked as from's signature
// over msg. The slices are only read and never retained.
type Item struct {
	From types.ProcessID
	Msg  []byte
	Sig  []byte
}

// Stats are cumulative counters for monitoring and tests. Every lookup is
// exactly one of a positive hit, a negative hit, or a miss, so
// Hits + NegHits + Misses equals the total lookups served.
type Stats struct {
	Hits      uint64 // positive-cache hits
	NegHits   uint64 // negative-cache hits
	Misses    uint64 // real verifications performed
	Evictions uint64 // cache entries displaced by capacity (either cache)
}

// Defaults.
const (
	// DefaultCacheSize bounds the positive cache. At 64-byte signatures a
	// full cache of 32-byte keys costs well under 1 MiB.
	DefaultCacheSize = 8192
	// DefaultNegativeCacheSize bounds the negative cache. Deliberately much
	// smaller: negative entries only help against replayed garbage, and a
	// Byzantine flood must not be able to claim real memory.
	DefaultNegativeCacheSize = 512
	// DefaultSequentialThreshold is the batch size below which VerifyAll
	// verifies inline instead of fanning out to workers.
	DefaultSequentialThreshold = 4
)

// Option configures a Verifier.
type Option func(*Verifier)

// WithCacheSize bounds the positive cache; 0 disables positive caching.
func WithCacheSize(n int) Option {
	return func(v *Verifier) { v.pos.cap = n }
}

// WithNegativeCacheSize bounds the negative cache; 0 disables it.
func WithNegativeCacheSize(n int) Option {
	return func(v *Verifier) { v.neg.cap = n }
}

// WithWorkers sets the batch fan-out width (default GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(v *Verifier) {
		if n > 0 {
			v.workers = n
		}
	}
}

// WithSequentialThreshold sets the batch size below which VerifyAll stays
// inline.
func WithSequentialThreshold(n int) Option {
	return func(v *Verifier) { v.seqThreshold = n }
}

// Verifier wraps an inner sig.Verifier with the cache and batch fast path.
// It implements sig.Verifier and is safe for concurrent use.
type Verifier struct {
	inner        sig.Verifier
	workers      int
	seqThreshold int
	disabled     bool

	mu  sync.Mutex
	pos lru
	neg lru

	hits, negHits, misses, evictions atomic.Uint64

	mx atomic.Pointer[fvMetrics] // nil until AttachMetrics
}

var _ sig.Verifier = (*Verifier)(nil)

// New wraps inner with the fast path. If the environment variable
// UNIDIR_FASTVERIFY is set to "off" (or "0"), the returned Verifier is a
// transparent pass-through: no caching, no fan-out. That keeps before/after
// benchmarking honest inside one binary.
func New(inner sig.Verifier, opts ...Option) *Verifier {
	v := &Verifier{
		inner:        inner,
		workers:      runtime.GOMAXPROCS(0),
		seqThreshold: DefaultSequentialThreshold,
		pos:          lru{cap: DefaultCacheSize},
		neg:          lru{cap: DefaultNegativeCacheSize},
	}
	for _, opt := range opts {
		opt(v)
	}
	switch knob.Choice("UNIDIR_FASTVERIFY", "on", "on", "1", "off", "0") {
	case "off", "0":
		v.disabled = true
	}
	return v
}

// Enabled reports whether the fast path is active (it is not when the
// UNIDIR_FASTVERIFY=off kill switch is set).
func (v *Verifier) Enabled() bool { return !v.disabled }

// Concurrent reports whether batch verification can actually run in
// parallel. Verify-ahead pipelines should consult this: on a single-core
// process, pre-verification on another goroutine only adds queue traffic.
func (v *Verifier) Concurrent() bool { return !v.disabled && v.workers > 1 }

// Stats returns cumulative cache counters.
func (v *Verifier) Stats() Stats {
	return Stats{
		Hits:      v.hits.Load(),
		NegHits:   v.negHits.Load(),
		Misses:    v.misses.Load(),
		Evictions: v.evictions.Load(),
	}
}

// fvMetrics mirrors the Stats counters into an obs.Registry, plus the
// batch-verify size distribution. The handles are shared: attaching several
// verifiers (e.g. one per replica in a test harness) to one registry
// aggregates them, preserving the lookups == hits+negHits+misses invariant.
type fvMetrics struct {
	lookups   *obs.Counter
	hits      *obs.Counter
	negHits   *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	batchSize *obs.Histogram
}

// AttachMetrics publishes the verifier's counters into reg as
// sig_lookups_total, sig_cache_hits_total, sig_cache_neg_hits_total,
// sig_verifications_total, sig_cache_evictions_total, and the
// sig_batch_verify_size histogram. Safe to call at any time, including
// while the verifier is in use.
func (v *Verifier) AttachMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	v.mx.Store(&fvMetrics{
		lookups:   reg.Counter("sig_lookups_total"),
		hits:      reg.Counter("sig_cache_hits_total"),
		negHits:   reg.Counter("sig_cache_neg_hits_total"),
		misses:    reg.Counter("sig_verifications_total"),
		evictions: reg.Counter("sig_cache_evictions_total"),
		batchSize: reg.Histogram("sig_batch_verify_size", obs.SizeBuckets),
	})
}

// key binds (signer, message, signature) into one cache key. Length
// prefixes make the binding unambiguous (no msg/sig boundary confusion).
func cacheKey(from types.ProcessID, msg, sig []byte) [sha256.Size]byte {
	h := sha256.New()
	var hdr [20]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(int64(from)))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(msg)))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(sig)))
	h.Write(hdr[:])
	h.Write(msg)
	h.Write(sig)
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// lookup consults both caches. It returns (verdict, true) on a hit, where
// verdict is nil for a cached success and the cached error for a cached
// failure.
func (v *Verifier) lookup(k [sha256.Size]byte) (error, bool) {
	m := v.mx.Load()
	if m != nil {
		m.lookups.Inc()
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.pos.get(k); ok {
		v.hits.Add(1)
		if m != nil {
			m.hits.Inc()
		}
		return nil, true
	}
	if err, ok := v.neg.get(k); ok {
		v.negHits.Add(1)
		if m != nil {
			m.negHits.Inc()
		}
		return err, true
	}
	return nil, false
}

// record stores the outcome of a real verification. Successes and failures
// go to separate bounded caches; a failure is never recorded as a success.
func (v *Verifier) record(k [sha256.Size]byte, err error) {
	v.mu.Lock()
	var evicted int
	if err == nil {
		evicted = v.pos.put(k, nil)
	} else {
		evicted = v.neg.put(k, err)
	}
	v.mu.Unlock()
	if evicted > 0 {
		v.evictions.Add(uint64(evicted))
		if m := v.mx.Load(); m != nil {
			m.evictions.Add(uint64(evicted))
		}
	}
}

// Verify checks one signature through the cache. It implements
// sig.Verifier.
func (v *Verifier) Verify(from types.ProcessID, msg, sig []byte) error {
	if v.disabled {
		return v.inner.Verify(from, msg, sig)
	}
	k := cacheKey(from, msg, sig)
	if err, ok := v.lookup(k); ok {
		return err
	}
	v.misses.Add(1)
	if m := v.mx.Load(); m != nil {
		m.misses.Inc()
	}
	err := v.inner.Verify(from, msg, sig)
	v.record(k, err)
	return err
}

// VerifyAll checks every item and returns nil only if all verify. It
// consults the cache first, verifies the remaining misses — inline for
// small batches, otherwise fanned out over the worker pool — and
// short-circuits on the first failure (workers drain early; their partial
// results are still cached). The error returned is one failing item's
// error; which one is unspecified when several fail.
func (v *Verifier) VerifyAll(items []Item) error {
	if v.disabled {
		for _, it := range items {
			if err := v.inner.Verify(it.From, it.Msg, it.Sig); err != nil {
				return err
			}
		}
		return nil
	}

	if m := v.mx.Load(); m != nil {
		m.batchSize.Observe(float64(len(items)))
	}
	// Cache pass: resolve hits, collect misses.
	type miss struct {
		idx int
		key [sha256.Size]byte
	}
	var misses []miss
	for i, it := range items {
		k := cacheKey(it.From, it.Msg, it.Sig)
		err, ok := v.lookup(k)
		if ok {
			if err != nil {
				return err
			}
			continue
		}
		misses = append(misses, miss{idx: i, key: k})
	}
	if len(misses) == 0 {
		return nil
	}
	v.misses.Add(uint64(len(misses)))
	if m := v.mx.Load(); m != nil {
		m.misses.Add(uint64(len(misses)))
	}

	verifyOne := func(m miss) error {
		it := items[m.idx]
		err := v.inner.Verify(it.From, it.Msg, it.Sig)
		v.record(m.key, err)
		return err
	}

	if len(misses) < v.seqThreshold || v.workers <= 1 {
		for _, m := range misses {
			if err := verifyOne(m); err != nil {
				return err
			}
		}
		return nil
	}

	// Fan out: workers pull from a shared cursor and stop early once any
	// verification fails.
	workers := v.workers
	if workers > len(misses) {
		workers = len(misses)
	}
	var (
		cursor atomic.Int64
		failed atomic.Bool
		first  atomic.Pointer[error]
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= len(misses) {
					return
				}
				if err := verifyOne(misses[i]); err != nil {
					e := err
					first.CompareAndSwap(nil, &e)
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p := first.Load(); p != nil {
		return *p
	}
	return nil
}

// --- bounded LRU ---

// lru is a bounded map from cache key to verification outcome with
// least-recently-used eviction. Not safe for concurrent use; the Verifier
// guards it with its mutex.
type lru struct {
	cap   int
	order *list.List // front = most recently used; values are *lruEntry
	byKey map[[sha256.Size]byte]*list.Element
}

type lruEntry struct {
	key [sha256.Size]byte
	err error // nil for positive entries
}

func (l *lru) get(k [sha256.Size]byte) (error, bool) {
	if l.byKey == nil {
		return nil, false
	}
	el, ok := l.byKey[k]
	if !ok {
		return nil, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry).err, true
}

// put stores or refreshes an entry and returns how many entries capacity
// forced out to make room.
func (l *lru) put(k [sha256.Size]byte, err error) int {
	if l.cap <= 0 {
		return 0
	}
	if l.byKey == nil {
		l.byKey = make(map[[sha256.Size]byte]*list.Element, l.cap)
		l.order = list.New()
	}
	if el, ok := l.byKey[k]; ok {
		el.Value.(*lruEntry).err = err
		l.order.MoveToFront(el)
		return 0
	}
	evicted := 0
	for len(l.byKey) >= l.cap {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.byKey, oldest.Value.(*lruEntry).key)
		evicted++
	}
	l.byKey[k] = l.order.PushFront(&lruEntry{key: k, err: err})
	return evicted
}

// len reports the number of cached entries (for tests).
func (l *lru) len() int { return len(l.byKey) }
