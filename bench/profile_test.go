package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// cannedStacks is a stack dump (leaf first) with one case per attribution
// rule.
var cannedStacks = []struct {
	layer string
	stack []string
}{
	// stdlib crypto under the sig layer is sig's cost
	{"sig", []string{"crypto/internal/edwards25519.(*Point).VarTimeDoubleScalarBaseMult", "crypto/ed25519.Verify",
		"unidir/internal/sig.(*ed25519Verifier).Verify", "unidir/internal/sig/fastverify.(*Verifier).Verify",
		"unidir/internal/trusted/trinc.(*Verifier).Check", "unidir/internal/minbft.(*Replica).handlePrepare"}},
	// the first layer frame from the leaf wins, not the outermost
	{"trusted", []string{"syscall.Syscall", "os.(*File).Write", "unidir/internal/trusted/ctrstore.(*Store).Record",
		"unidir/internal/trusted/trinc.(*Device).Attest", "unidir/internal/minbft.(*Replica).attestAndSend"}},
	// write(2) under the sender is tcpnet's
	{"tcpnet", []string{"internal/runtime/syscall.Syscall6", "net.(*netFD).Write", "bufio.(*Writer).Flush",
		"unidir/internal/tcpnet.(*sender).writeBatch", "unidir/internal/tcpnet.(*sender).run"}},
	// packages outside the table decide nothing; generic receivers parse
	{"tcpnet", []string{"runtime.mallocgc", "unidir/internal/syncx.(*Queue[unidir/internal/transport.Envelope]).Push",
		"unidir/internal/tcpnet.(*Net).readLoop"}},
	{"wire", []string{"runtime.growslice", "unidir/internal/wire.(*Encoder).BytesField", "unidir/internal/smr.Request.Encode"}},
	{"smr", []string{"runtime.mapassign", "unidir/internal/smr.(*Pipeline).Submit", "main.(*generator).issue"}},
	{"order", []string{"unidir/internal/pbft.(*Replica).run"}},
	{"kvstore", []string{"runtime.memmove", "unidir/internal/kvstore.(*Store).Apply", "unidir/internal/minbft.(*Replica).execute"}},
	{"obs", []string{"unidir/internal/obs/tracing.(*Tracer).start", "unidir/internal/minbft.(*Replica).traceBatch"}},
	// the benchmark's own frames, including closures
	{"bench", []string{"time.Now", "main.(*generator).await", "main.(*generator).run.func1"}},
	// no layer frame at all: scheduler, GC, netpoll
	{"runtime", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}},
	{"runtime", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
}

func TestStackLayer(t *testing.T) {
	var samples []stackSample
	for _, c := range cannedStacks {
		if got := stackLayer(c.stack); got != c.layer {
			t.Errorf("stack with leaf %s charged to %q, want %q", c.stack[0], got, c.layer)
		}
		samples = append(samples, stackSample{stack: c.stack, weight: 10})
	}
	sh := shares(samples)
	var sum float64
	for _, l := range layers {
		sum += sh[l]
	}
	if math.Abs(sum-1) > 1e-9 || len(sh) != len(layers) {
		t.Fatalf("shares %v sum to %v over %d layers, want 1 over %d", sh, sum, len(sh), len(layers))
	}
	if want := 2.0 / float64(len(cannedStacks)); math.Abs(sh["tcpnet"]-want) > 1e-9 {
		t.Fatalf("tcpnet share %v, want %v", sh["tcpnet"], want)
	}
}

// pb is a minimal protobuf writer for building a canned profile.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pb) uintField(field int, v uint64) { p.varint(uint64(field)<<3 | 0); p.varint(v) }
func (p *pb) bytesField(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}

// TestParseCPUProfile decodes a hand-built profile with a packed and an
// unpacked sample, an inlined location, and fields the parser must skip.
func TestParseCPUProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"crypto/ed25519.Verify", "unidir/internal/sig.(*ed25519Verifier).Verify", "main.(*generator).issue", "runtime.futex"}
	var prof pb
	for i := 0; i < 2; i++ { // sample_type: skipped
		var vt pb
		vt.uintField(1, uint64(1+2*i))
		vt.uintField(2, uint64(2+2*i))
		prof.bytesField(1, vt.Bytes())
	}
	// sample 1, packed: locations [1, 2], values [3 samples, 30 ms]
	var s1, ids, vals pb
	ids.varint(1)
	ids.varint(2)
	vals.varint(3)
	vals.varint(30e6)
	s1.bytesField(1, ids.Bytes())
	s1.bytesField(2, vals.Bytes())
	prof.bytesField(2, s1.Bytes())
	// sample 2, unpacked: location 3, values [1, 10 ms]
	var s2 pb
	s2.uintField(1, 3)
	s2.uintField(2, 1)
	s2.uintField(2, 10e6)
	prof.bytesField(2, s2.Bytes())
	// location 1 holds an inlined pair: ed25519.Verify inlined into sig.Verify
	loc := func(id uint64, fns ...uint64) {
		var l pb
		l.uintField(1, id)
		l.uintField(3, 0x401000+id) // address: skipped
		for _, fn := range fns {
			var line pb
			line.uintField(1, fn)
			line.uintField(2, 42)
			l.bytesField(4, line.Bytes())
		}
		prof.bytesField(4, l.Bytes())
	}
	loc(1, 1, 2)
	loc(2, 3)
	loc(3, 4)
	for id := uint64(1); id <= 4; id++ {
		var f pb
		f.uintField(1, id)
		f.uintField(2, 4+id) // name
		f.uintField(4, 0)    // filename: skipped
		prof.bytesField(5, f.Bytes())
	}
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	prof.uintField(9, 12345) // time_nanos: skipped

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()
	samples, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("%d samples, want 2", len(samples))
	}
	want := []string{"crypto/ed25519.Verify", "unidir/internal/sig.(*ed25519Verifier).Verify", "main.(*generator).issue"}
	if len(samples[0].stack) != 3 || samples[0].weight != 30e6 {
		t.Fatalf("sample 0: %+v", samples[0])
	}
	for i, fn := range want {
		if samples[0].stack[i] != fn {
			t.Fatalf("sample 0 frame %d = %q, want %q", i, samples[0].stack[i], fn)
		}
	}
	sh := shares(samples)
	if math.Abs(sh["sig"]-0.75) > 1e-9 || math.Abs(sh["runtime"]-0.25) > 1e-9 {
		t.Fatalf("shares %v, want sig 0.75 runtime 0.25", sh)
	}
	if _, err := parseCPUProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Fatal("a truncated profile parsed without error")
	}
}
