package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the generator's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// result is an in-flight operation an awaiter blocks on (smr.Call and
// smr.ReadCall both satisfy it).
type result interface {
	Result() ([]byte, error)
}

// keyState tracks the per-key versions that make outputs checkable: every
// PUT value embeds (version, key); an acked version is a floor for every
// read issued afterwards.
type keyState struct {
	names     []string
	valueSize int
	next      []uint64        // last version issued; submitter goroutine only
	acked     []atomic.Uint64 // last version acked; written by the write awaiter
}

const valueHeader = 16 // version, key index

func newKeyState(keys, valueSize int) *keyState {
	if valueSize < valueHeader {
		valueSize = valueHeader
	}
	s := &keyState{names: make([]string, keys), valueSize: valueSize,
		next: make([]uint64, keys), acked: make([]atomic.Uint64, keys)}
	for k := range s.names {
		s.names[k] = fmt.Sprintf("k%05d", k)
	}
	return s
}

// nextValue issues key's next version and writes the value carrying it
// into buf (valueSize bytes).
func (s *keyState) nextValue(key int, buf []byte) (ver uint64) {
	s.next[key]++
	ver = s.next[key]
	binary.LittleEndian.PutUint64(buf, ver)
	binary.LittleEndian.PutUint64(buf[8:], uint64(key))
	for i := valueHeader; i < len(buf); i++ {
		buf[i] = byte(key + i)
	}
	return ver
}

// checkGet validates a GET result (status byte + value) for key against
// the least version the read may return.
func (s *keyState) checkGet(key int, floor uint64, res []byte) error {
	if len(res) != 1+s.valueSize || res[0] != 0 {
		return fmt.Errorf("get %s: malformed result (%d bytes)", s.names[key], len(res))
	}
	ver := binary.LittleEndian.Uint64(res[1:])
	if got := binary.LittleEndian.Uint64(res[9:]); got != uint64(key) {
		return fmt.Errorf("get %s: value belongs to key %d", s.names[key], got)
	}
	if ver < floor {
		return fmt.Errorf("get %s: version %d is older than acked version %d", s.names[key], ver, floor)
	}
	return nil
}

func checkPut(res []byte) error {
	if len(res) != 1 || res[0] != 0 {
		return fmt.Errorf("put: unexpected result %x", res)
	}
	return nil
}

// pendingOp is one submitted operation on its way to an awaiter.
type pendingOp struct {
	from time.Time // when it fell due (open loop) or was submitted (closed loop)
	key  int
	ver  uint64 // PUT: the version written; GET: the least version allowed
	res  result
}

// opEvent is one completed operation, kept only when the scenario needs
// the timeline (failover).
type opEvent struct {
	from, done time.Time
}

// generator drives one workload: a single submitter goroutine picks keys
// and op classes from the seed and submits through the client; one FIFO
// awaiter goroutine per op class collects results in submission order.
// There is no goroutine per request.
//
// Open loop: request i falls due at start + i/rate. A late generator sends
// immediately and does not forgive the slot; latency runs from the due
// time, so a stall is charged to every request it delayed.
// Closed loop: the submitter blocks on the client window; latency runs from
// just before the submit call.
//
// An awaiter observes completions in submission order, so an operation that
// completes ahead of an older one of its class is timed when the older one
// is done. Replies to one client arrive in order except around faults.
type generator struct {
	clk   clock
	w     workload
	rng   *rand.Rand
	state *keyState
	put   func(key string, value []byte) (result, error)
	get   func(key string) (result, error)
	buf   []byte // PUT value scratch; the command encoder copies it

	until  atomic.Int64 // UnixNano after which nothing more is submitted
	writes chan pendingOp
	reads  chan pendingOp
	wrec   *recorder
	rrec   *recorder // nil when the workload has no reads

	keepEvents bool
	events     []opEvent // appended by the write awaiter; read after run returns

	submitted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	firstErr  error
	lateMax   time.Duration // open loop: how late the generator ran at worst
}

func newGenerator(clk clock, w workload, seed int64, state *keyState,
	put func(string, []byte) (result, error), get func(string) (result, error)) *generator {
	g := &generator{clk: clk, w: w, rng: rand.New(rand.NewSource(seed)), state: state, put: put, get: get,
		buf: make([]byte, state.valueSize)}
	g.until.Store(math.MaxInt64)
	// Twice the window: in-flight operations plus completions the awaiter
	// has not reached yet, so the submitter blocks on the client window and
	// not on this channel.
	g.writes = make(chan pendingOp, 2*w.writeWindow)
	if w.readWindow > 0 {
		g.reads = make(chan pendingOp, 2*w.readWindow)
	}
	return g
}

func (g *generator) stopAt(t time.Time) { g.until.Store(t.UnixNano()) }

func (g *generator) fail(err error) {
	g.failed.Add(1)
	g.errMu.Lock()
	if g.firstErr == nil {
		g.firstErr = err
	}
	g.errMu.Unlock()
}

// run submits from start until the stop time, then waits for every
// outstanding operation. wrec (and rrec for workloads with reads) must be
// set.
func (g *generator) run(start time.Time) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); g.await(g.writes, g.wrec, false) }()
	if g.reads != nil {
		wg.Add(1)
		go func() { defer wg.Done(); g.await(g.reads, g.rrec, true) }()
	}
	if g.w.openRate > 0 {
		g.submitOpen(start)
	} else {
		g.submitClosed()
	}
	close(g.writes)
	if g.reads != nil {
		close(g.reads)
	}
	wg.Wait()
}

func (g *generator) submitOpen(start time.Time) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * time.Second / time.Duration(g.w.openRate))
		if due.UnixNano() >= g.until.Load() {
			return
		}
		if d := due.Sub(g.clk.Now()); d > 0 {
			g.clk.Sleep(d)
		}
		if late := g.clk.Now().Sub(due); late > g.lateMax {
			g.lateMax = late
		}
		g.issue(due)
	}
}

func (g *generator) submitClosed() {
	for {
		now := g.clk.Now()
		if now.UnixNano() >= g.until.Load() {
			return
		}
		g.issue(now)
	}
}

// issue submits the next operation of the seeded sequence.
func (g *generator) issue(from time.Time) {
	key := g.rng.Intn(len(g.state.names))
	isRead := g.w.readPct > 0 && g.rng.Intn(100) < g.w.readPct
	g.submitted.Add(1)
	if isRead {
		// Floor read before the submit: any version acked by now must be
		// visible to this read.
		floor := g.state.acked[key].Load()
		res, err := g.get(g.state.names[key])
		if err != nil {
			g.fail(fmt.Errorf("submit get: %w", err))
			return
		}
		g.reads <- pendingOp{from: from, key: key, ver: floor, res: res}
		return
	}
	ver := g.state.nextValue(key, g.buf)
	res, err := g.put(g.state.names[key], g.buf)
	if err != nil {
		g.fail(fmt.Errorf("submit put: %w", err))
		return
	}
	g.writes <- pendingOp{from: from, key: key, ver: ver, res: res}
}

func (g *generator) await(ch <-chan pendingOp, rec *recorder, isRead bool) {
	for p := range ch {
		res, err := p.res.Result()
		done := g.clk.Now()
		switch {
		case err != nil:
			g.fail(err)
			continue
		case isRead:
			err = g.state.checkGet(p.key, p.ver, res)
		default:
			if err = checkPut(res); err == nil {
				g.state.acked[p.key].Store(p.ver)
			}
		}
		if err != nil {
			g.fail(err)
			continue
		}
		rec.add(done, done.Sub(p.from))
		if g.keepEvents {
			g.events = append(g.events, opEvent{from: p.from, done: done})
		}
	}
}

// pipelineAll runs n operations through submit in order, depth in flight,
// with one FIFO awaiter (this goroutine); check sees every outcome and
// returns an error for the ones that count as failed. It is the preload and
// the final read-back.
func pipelineAll(n, depth int, submit func(i int) (result, error), check func(i int, res []byte, err error) error) (failed int, first error) {
	type item struct {
		i   int
		res result
		err error
	}
	ch := make(chan item, depth)
	go func() {
		for i := 0; i < n; i++ {
			res, err := submit(i)
			ch <- item{i, res, err}
		}
		close(ch)
	}()
	for it := range ch {
		var res []byte
		err := it.err
		if err == nil {
			res, err = it.res.Result()
		}
		if err = check(it.i, res, err); err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return failed, first
}

// completedBetween counts the checked completions observed in [t0, t1]:
// from the timeline when it is kept, else the windows' (the traced interval
// is the windows' span).
func (g *generator) completedBetween(t0, t1 time.Time) int {
	if g.keepEvents {
		n := 0
		for _, e := range g.events {
			if !e.done.Before(t0) && !e.done.After(t1) {
				n++
			}
		}
		return n
	}
	n := g.wrec.binned()
	if g.rrec != nil {
		n += g.rrec.binned()
	}
	return n
}
