package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/sig"
	"unidir/internal/sig/fastverify"
	"unidir/internal/smr"
	"unidir/internal/tcpnet"
	"unidir/internal/trusted/ctrstore"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// The microbenches time each layer's public functions from outside, for
// opt.micro each. They say what one call costs; the budget (cpu_share.*)
// says how much of a workload the layer is.

// timeIt calls fn for about d in doubling batches and returns the mean
// nanoseconds and heap allocations per call.
func timeIt(d time.Duration, fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, start := 0, time.Now()
	for batch := 1; time.Since(start) < d; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// syncStore is the fsync-per-attest variant of the counter WAL: ctrstore
// never syncs on its own (a stated choice: one write(2) per record survives
// a process crash, not power loss). Wrapping it gives what durability
// against power loss would cost, without touching ctrstore.
type syncStore struct{ *ctrstore.Store }

func (s syncStore) Record(counter, value uint64) error {
	if err := s.Store.Record(counter, value); err != nil {
		return err
	}
	return s.Store.Sync()
}

var _ trinc.CounterStore = syncStore{}

// pool is how many pre-made signatures a cache-miss microbench cycles
// through before it needs a verifier with a cold cache.
const pool = 1024

func microbench(res *runResult, opt runOptions) error {
	d := opt.micro
	dir := filepath.Join(opt.dir+"-micro", "wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(opt.dir + "-micro")
	fmt.Printf("%-28s %14s %-6s %12s\n", "microbench", "per call", "unit", "allocs/call")
	// report records v/div (ns to the metric's unit) and prints it.
	report := func(name, unit string, v, allocs, div float64) {
		res.set1(name, unit, v/div)
		fmt.Printf("%-28s %14.3f %-6s %12.2f\n", name, v/div, unit, allocs)
	}
	m, err := types.NewMembership(2*pinF+1, pinF)
	if err != nil {
		return err
	}

	// wire: one attestation-shaped message through the codec.
	hash, sg := make([]byte, sha256.Size), make([]byte, 64)
	var encoded []byte
	ns, allocs := timeIt(d, func() {
		e := wire.NewEncoder(160)
		e.String("unidir/bench/msg")
		e.Int(1)
		e.Uint64(2)
		e.Uint64(3)
		e.Uint64(4)
		e.BytesField(hash)
		e.BytesField(sg)
		encoded = e.Bytes()
	})
	report("wire.encode_ns", "ns", ns, allocs, 1)
	res.set1("wire.encode_allocs", "count", allocs)
	ns, allocs = timeIt(d, func() {
		dec := wire.NewDecoder(encoded)
		_ = dec.String()
		_ = dec.Int()
		_, _, _ = dec.Uint64(), dec.Uint64(), dec.Uint64()
		_, _ = dec.BytesField(), dec.BytesField()
		if dec.Finish() != nil {
			panic("wire microbench: decode failed")
		}
	})
	report("wire.decode_ns", "ns", ns, allocs, 1)

	// sig: Ed25519 raw, then through the verified-signature cache.
	rings, err := sig.NewKeyrings(m, sig.Ed25519, rand.New(rand.NewSource(pinKeySeed)))
	if err != nil {
		return err
	}
	msg := make([]byte, 96)
	signature := rings[0].Sign(msg)
	ns, allocs = timeIt(d, func() { _ = rings[0].Sign(msg) })
	report("sig.ed25519_sign_us", "us", ns, allocs, 1e3)
	ns, allocs = timeIt(d, func() {
		if rings[1].Verify(0, msg, signature) != nil {
			panic("sig microbench: verify failed")
		}
	})
	report("sig.ed25519_verify_us", "us", ns, allocs, 1e3)
	fv := fastverify.New(rings[1])
	_ = fv.Verify(0, msg, signature)
	ns, allocs = timeIt(d, func() { _ = fv.Verify(0, msg, signature) })
	report("sig.fastverify_hit_ns", "ns", ns, allocs, 1)
	msgs, sigs := make([][]byte, pool), make([][]byte, pool)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("unidir/bench/miss/%04d/%080d", i, i))
		sigs[i] = rings[0].Sign(msgs[i])
	}
	i := 0
	ns, allocs = timeIt(d, func() {
		if i%pool == 0 {
			fv = fastverify.New(rings[1]) // cold cache
		}
		_ = fv.Verify(0, msgs[i%pool], sigs[i%pool])
		i++
	})
	report("sig.fastverify_miss_us", "us", ns, allocs, 1e3)

	// trusted: attest without and with the counter WAL, check (cold cache),
	// and the WAL append alone, without and with fsync.
	universe := func() (*trinc.Universe, error) {
		return trinc.NewUniverse(m, sig.Ed25519, rand.New(rand.NewSource(pinKeySeed)))
	}
	tu, err := universe()
	if err != nil {
		return err
	}
	seq := types.SeqNum(0)
	attest := func(dev *trinc.Device) func() {
		return func() {
			seq++
			if _, err := dev.Attest(1, seq, msg); err != nil {
				panic(err)
			}
		}
	}
	ns, allocs = timeIt(d, attest(tu.Devices[0]))
	report("trinc.attest_us", "us", ns, allocs, 1e3)
	wal, err := ctrstore.Open(filepath.Join(dir, "attest.wal"))
	if err != nil {
		return err
	}
	defer wal.Close()
	if err := tu.Devices[1].Persist(wal); err != nil {
		return err
	}
	ns, allocs = timeIt(d, attest(tu.Devices[1]))
	report("trinc.attest_wal_us", "us", ns, allocs, 1e3)
	atts := make([]trinc.Attestation, pool)
	for i := range atts {
		seq++
		if atts[i], err = tu.Devices[2].Attest(1, seq, msg); err != nil {
			return err
		}
	}
	i = 0
	var fresh *trinc.Universe
	ns, allocs = timeIt(d, func() {
		if i%pool == 0 {
			// Same seed, same device keys, cold verifier cache.
			if fresh, err = universe(); err != nil {
				panic(err)
			}
		}
		if fresh.Verifier.Check(atts[i%pool]) != nil {
			panic("trinc microbench: check failed")
		}
		i++
	})
	report("trinc.check_us", "us", ns, allocs, 1e3)
	rec, err := ctrstore.Open(filepath.Join(dir, "record.wal"))
	if err != nil {
		return err
	}
	defer rec.Close()
	var v uint64
	record := func(cs trinc.CounterStore) func() {
		return func() {
			v++
			if err := cs.Record(1, v); err != nil {
				panic(err)
			}
		}
	}
	ns, allocs = timeIt(d, record(rec))
	report("ctrstore.record_us", "us", ns, allocs, 1e3)
	ns, allocs = timeIt(d, record(syncStore{rec}))
	report("ctrstore.record_sync_us", "us", ns, allocs, 1e3)

	if err := microTCP(d, report); err != nil {
		return err
	}

	// smr: batch trigger, admission, and the batch codecs at the pinned cap.
	trig := smr.NewBatchTrigger(pinBatch, pinBatchDeadline)
	now := time.Unix(0, 0)
	ns, allocs = timeIt(d, func() {
		now = now.Add(30 * time.Microsecond)
		trig.Arrive(now)
		_ = trig.Wait(3, 1, now.Add(-50*time.Microsecond), now)
	})
	report("smr.batch_trigger_ns", "ns", ns, allocs, 1)
	adm := smr.NewAdmission(pinAdmission)
	ns, allocs = timeIt(d, func() { _ = adm.Admit(7, 100, now) })
	report("smr.admit_ns", "ns", ns, allocs, 1)
	value := make([]byte, pinValueSize)
	reqs := make([]smr.Request, pinBatch)
	reads, replies := make([][]byte, pinBatch), make([][]byte, pinBatch)
	for i := range reqs {
		reqs[i] = smr.Request{Client: 3, Num: uint64(i + 1), Op: kvstore.EncodePut(fmt.Sprintf("k%05d", i), value)}
		reads[i] = smr.ReadRequest{Client: 3, Num: uint64(i + 1), Op: kvstore.EncodeGet(fmt.Sprintf("k%05d", i))}.Encode()
		replies[i] = smr.ReadReply{Replica: 0, Client: 3, Num: uint64(i + 1), Result: value, Code: smr.ReadLeased, ExecSeq: 9}.Encode()
	}
	ns, allocs = timeIt(d, func() {
		if _, err := smr.DecodeRequests(smr.EncodeRequests(reqs), pinBatch); err != nil {
			panic(err)
		}
	})
	report("smr.reqs_codec_us", "us", ns, allocs, 1e3)
	ns, allocs = timeIt(d, func() {
		if _, err := smr.DecodeReadRequestBatch(smr.EncodeReadRequestBatch(reads)); err != nil {
			panic(err)
		}
		if _, err := smr.DecodeReadReplyBatch(smr.EncodeReadReplyBatch(replies)); err != nil {
			panic(err)
		}
	})
	report("smr.read_codec_us", "us", ns, allocs, 1e3)

	// kvstore: apply and query at the small state, snapshot and restore at
	// w-bigstate's 8 MiB, and the checkpoint encode of that snapshot.
	small := kvstore.New()
	puts, gets := make([][]byte, pinKeys), make([][]byte, pinKeys)
	for k := range puts {
		puts[k] = kvstore.EncodePut(fmt.Sprintf("k%05d", k), value)
		gets[k] = kvstore.EncodeGet(fmt.Sprintf("k%05d", k))
		small.Apply(puts[k])
	}
	i = 0
	ns, allocs = timeIt(d, func() { small.Apply(puts[i%pinKeys]); i++ })
	report("kvstore.apply_ns", "ns", ns, allocs, 1)
	ns, allocs = timeIt(d, func() { small.Query(gets[i%pinKeys]); i++ })
	report("kvstore.query_ns", "ns", ns, allocs, 1)
	big := kvstore.New()
	bigValue := make([]byte, 512)
	for k := 0; k < 16384; k++ {
		big.Apply(kvstore.EncodePut(fmt.Sprintf("k%05d", k), bigValue))
	}
	var snap []byte
	ns, allocs = timeIt(d, func() { snap = big.Snapshot() })
	report("kvstore.snapshot_ms", "ms", ns, allocs, 1e6)
	ns, allocs = timeIt(d, func() {
		if err := kvstore.New().Restore(snap); err != nil {
			panic(err)
		}
	})
	report("kvstore.restore_ms", "ms", ns, allocs, 1e6)
	table := smr.NewClientTable()
	table.Executed(reqs[0], []byte{0})
	ns, allocs = timeIt(d, func() { _ = smr.EncodeCheckpointState(snap, table) })
	report("smr.ckpt_encode_ms", "ms", ns, allocs, 1e6)
	return nil
}

// microTCP measures two tcpnet endpoints on loopback: a 128-byte ping-pong
// and a one-way stream of 4 KiB frames.
func microTCP(d time.Duration, report func(name, unit string, v, allocs, div float64)) error {
	cfg := tcpnet.Config{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	a, err := tcpnet.New(0, cfg)
	if err != nil {
		return err
	}
	defer a.Close()
	cfg[0] = a.Addr()
	b, err := tcpnet.New(1, cfg)
	if err != nil {
		return err
	}
	defer b.Close()
	cfg[1] = b.Addr()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second+2*d)
	defer cancel()
	var failed error
	hop := func(from, to *tcpnet.Net, payload []byte) {
		if err := from.Send(to.Self(), payload); err != nil && failed == nil {
			failed = err
		}
		if _, err := to.Recv(ctx); err != nil && failed == nil {
			failed = err
		}
	}
	ping := make([]byte, 128)
	hop(a, b, ping) // dial both directions before timing
	hop(b, a, ping)
	ns, allocs := timeIt(d, func() { hop(a, b, ping); hop(b, a, ping) })
	report("tcpnet.rtt_us", "us", ns, allocs, 1e3)

	const burst = 256
	frame := make([]byte, 4096)
	ns, allocs = timeIt(d, func() {
		for i := 0; i < burst; i++ {
			if err := a.Send(1, frame); err != nil && failed == nil {
				failed = err
			}
		}
		for i := 0; i < burst; i++ {
			if _, err := b.Recv(ctx); err != nil && failed == nil {
				failed = err
			}
		}
	})
	// bytes per ns -> MB/s
	report("tcpnet.stream_mb_per_s", "MB/s", 1e3*burst*float64(len(frame))/ns, allocs, 1)
	if failed != nil {
		return fmt.Errorf("tcpnet microbench: %w", failed)
	}
	return nil
}
