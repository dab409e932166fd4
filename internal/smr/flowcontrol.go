package smr

import (
	"errors"
	"time"
)

// ErrOverloaded is the typed, retryable overload signal. Replicas return it
// (as an overload-coded Reply) when admission control sheds a request, and
// Pipeline.Submit returns it when the in-flight window stays exhausted past
// the submit deadline. Callers should back off and retry; nothing about the
// request was ordered or executed.
var ErrOverloaded = errors.New("smr: overloaded")

// Reply codes. A zero code is a normal committed result; an overload code
// marks a shed request (Result is empty). The code rides after the Result
// field on the wire; decoders that predate it read replies without one as
// ReplyOK, so the extension is backward tolerant.
const (
	ReplyOK         byte = 0
	ReplyOverloaded byte = 1
)

// minBatchGain is the expected number of arrivals within the deadline below
// which waiting cannot pay for itself: with fewer than ~2 requests expected,
// holding the batch open buys no amortization, so the trigger cuts
// immediately. This is what kills batch-wait at light load.
const minBatchGain = 2.0

// BatchTrigger is not used by the replica engine, whose valve cuts a partial
// batch only into an idle pipeline and so never waits on a deadline; it stays
// only while the benchmark's microbenchmark still times it.
//
// BatchTrigger decides when a proposer should cut a batch: at the size cap,
// or after a deadline that adapts to offered load. It keeps an EWMA of the
// request inter-arrival gap; when the expected number of arrivals within the
// maximum wait is too small to amortize anything, it cuts immediately, and
// otherwise it waits just long enough to plausibly fill the cap, never past
// the configured deadline. Waiting is further gated on the consensus
// pipeline being busy: while a proposal slot sits idle the batch always cuts
// immediately — holding requests back then buys no amortization the idle
// slot would not provide, and the deadline only overlaps in-flight work.
//
// Not safe for concurrent use; proposers drive it from their event loop.
type BatchTrigger struct {
	cap     int
	maxWait time.Duration
	gap     float64 // EWMA inter-arrival gap, seconds; 0 until first interval
	last    time.Time
}

// NewBatchTrigger returns a trigger for batches up to cap requests with the
// given maximum deadline. maxWait <= 0 disables waiting entirely (every
// Wait call returns 0). The replica engine does not call it.
func NewBatchTrigger(cap int, maxWait time.Duration) *BatchTrigger {
	if cap < 1 {
		cap = 1
	}
	return &BatchTrigger{cap: cap, maxWait: maxWait}
}

// Arrive records one request arrival at time now, updating the rate EWMA.
func (t *BatchTrigger) Arrive(now time.Time) {
	if !t.last.IsZero() {
		gap := now.Sub(t.last).Seconds()
		// Clamp idle gaps so a quiet period reads as "low load" quickly
		// instead of skewing the average for many samples.
		if max := (16 * t.maxWait).Seconds(); t.maxWait > 0 && gap > max {
			gap = max
		}
		const alpha = 0.2
		if t.gap == 0 {
			t.gap = gap
		} else {
			t.gap += alpha * (gap - t.gap)
		}
	}
	t.last = now
}

// Wait reports how much longer the proposer should hold an open batch of
// `pending` requests whose oldest member arrived at `oldest`, given
// `inflight` proposals already working through consensus. Zero means cut
// now: the batch is full, waiting is disabled, the pipeline has an idle
// slot, or the arrival rate is too low for waiting to amortize anything.
func (t *BatchTrigger) Wait(pending, inflight int, oldest, now time.Time) time.Duration {
	if t.maxWait <= 0 || pending >= t.cap {
		return 0
	}
	waited := time.Duration(0)
	if !oldest.IsZero() {
		waited = now.Sub(oldest)
	}
	if inflight < 1 {
		return 0 // idle pipeline: proposing now beats any amortization
	}
	if t.gap <= 0 {
		return 0 // no rate estimate yet: do not delay the first requests
	}
	expected := t.maxWait.Seconds() / t.gap
	if expected < minBatchGain {
		return 0 // light load: waiting cannot pay for itself
	}
	// Wait only as long as filling the remaining cap plausibly takes,
	// bounded by the configured deadline.
	fill := time.Duration(float64(t.cap-pending) * t.gap * float64(time.Second))
	deadline := t.maxWait
	if fill < deadline {
		deadline = fill
	}
	if rest := deadline - waited; rest > 0 {
		return rest
	}
	return 0
}

// AdmissionConfig bounds what a replica accepts before shedding with an
// overload reply. The zero value disables both gates.
type AdmissionConfig struct {
	// MaxPending caps the replica's pending-request queue; a request that
	// would grow the queue past it is shed. <= 0 means unbounded.
	MaxPending int
	// Rate is the per-client sustained admission rate in requests/second,
	// enforced by a token bucket. <= 0 disables per-client rate limiting.
	Rate float64
	// Burst is the token-bucket capacity (instantaneous burst allowance).
	// <= 0 with Rate > 0 defaults to max(1, Rate/10).
	Burst int
}

// Admission is a replica's admission controller: a global pending-queue
// bound plus an optional per-client token bucket. All replicas run the same
// configuration, so under uniform overload at least f+1 correct replicas
// shed the same requests and the client observes a quorum-backed
// ErrOverloaded rather than trusting any single replica's claim.
//
// A nil *Admission admits everything. Safe for single-goroutine use (the
// replica event loop).
type Admission struct {
	cfg     AdmissionConfig
	burst   float64
	buckets map[uint64]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// NewAdmission builds an admission controller from cfg.
func NewAdmission(cfg AdmissionConfig) *Admission {
	burst := float64(cfg.Burst)
	if cfg.Rate > 0 && burst <= 0 {
		burst = cfg.Rate / 10
		if burst < 1 {
			burst = 1
		}
	}
	return &Admission{cfg: cfg, burst: burst}
}

// Admit decides whether a new request from client may enter a pending queue
// currently holding queued requests. It never blocks; a false return means
// shed now (reply ErrOverloaded).
func (a *Admission) Admit(client uint64, queued int, now time.Time) bool {
	if a == nil {
		return true
	}
	if a.cfg.MaxPending > 0 && queued >= a.cfg.MaxPending {
		return false
	}
	if a.cfg.Rate <= 0 {
		return true
	}
	if a.buckets == nil {
		a.buckets = make(map[uint64]*tokenBucket)
	}
	// Defensive bound on tracked clients: a flood of fresh identities must
	// not grow memory without limit. Dropping the map refills every bucket,
	// which only ever errs toward admitting.
	if len(a.buckets) > 1<<16 {
		a.buckets = make(map[uint64]*tokenBucket)
	}
	b := a.buckets[client]
	if b == nil {
		b = &tokenBucket{tokens: a.burst, last: now}
		a.buckets[client] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * a.cfg.Rate
		if b.tokens > a.burst {
			b.tokens = a.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
