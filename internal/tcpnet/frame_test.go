package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"unidir/internal/obs/tracing"
)

func testCtx(sampled bool) tracing.Context {
	var tc tracing.Context
	for i := range tc.Trace {
		tc.Trace[i] = byte(i + 1)
	}
	for i := range tc.Span {
		tc.Span[i] = byte(0xA0 + i)
	}
	tc.Sampled = sampled
	return tc
}

func TestFrameRoundTrip(t *testing.T) {
	for _, tc := range []tracing.Context{{}, testCtx(false), testCtx(true)} {
		payload := []byte("hello frame")
		enc := appendFrame(nil, payload, tc)
		got, gotTC, err := readFrame(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) || gotTC != tc {
			t.Fatalf("round trip: got %q/%+v, want %q/%+v", got, gotTC, payload, tc)
		}
	}
}

// TestLegacyFrameDecodes proves wire compatibility: a frame produced by the
// pre-tracing sender (bare uint32 length + payload, no flag bit) must decode
// to the same payload with no trace context.
func TestLegacyFrameDecodes(t *testing.T) {
	payload := []byte("old client says hi")
	legacy := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	legacy = append(legacy, payload...)
	got, tc, err := readFrame(bufio.NewReader(bytes.NewReader(legacy)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mangled: %q", got)
	}
	if tc.Valid() || tc.Sampled {
		t.Fatalf("legacy frame grew a trace context: %+v", tc)
	}
	// And the reverse direction: an untraced frame from the new sender is
	// byte-identical to the legacy encoding, so old receivers keep working.
	if enc := appendFrame(nil, payload, tracing.Context{}); !bytes.Equal(enc, legacy) {
		t.Fatalf("untraced new frame differs from legacy: %x vs %x", enc, legacy)
	}
}

// TestWriteBatchMatchesAppendFrame pins the streaming writer to the same
// byte layout as the pure encoder the tests and fuzzer exercise.
func TestWriteBatchMatchesAppendFrame(t *testing.T) {
	batch := []outFrame{
		{payload: []byte("a")},
		{payload: []byte("traced"), tc: testCtx(true)},
		{payload: nil, tc: testCtx(false)},
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	s := &sender{net: &Net{}} // writeTimeout 0: conn untouched
	if err := s.writeBatch(nil, bw, batch); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, f := range batch {
		want = appendFrame(want, f.payload, f.tc)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("writeBatch layout drifted:\n got %x\nwant %x", buf.Bytes(), want)
	}
}

func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte("payload"), []byte("0123456789abcdef01234567"), true, true)
	f.Add([]byte{}, []byte{}, false, false)
	f.Add([]byte{0xFF}, bytes.Repeat([]byte{7}, 24), true, false)
	f.Fuzz(func(t *testing.T, payload, idBytes []byte, traced, sampled bool) {
		var tc tracing.Context
		if traced {
			copy(tc.Trace[:], idBytes)
			if len(idBytes) > 16 {
				copy(tc.Span[:], idBytes[16:])
			}
			tc.Sampled = sampled
			if !tc.Valid() {
				tc.Trace[0] = 1 // a zero trace ID means "untraced"; force validity
			}
		}
		enc := appendFrame(nil, payload, tc)
		got, gotTC, err := readFrame(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !bytes.Equal(got, payload) || gotTC != tc {
			t.Fatalf("round trip mismatch: %x/%+v vs %x/%+v", got, gotTC, payload, tc)
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// panic, and every accepted frame must re-encode to a prefix of the input.
func FuzzReadFrame(f *testing.F) {
	f.Add(appendFrame(nil, []byte("seed"), testCtx(true)))
	f.Add(appendFrame(nil, []byte("plain"), tracing.Context{}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, tc, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		reenc := appendFrame(nil, payload, tc)
		// The sampled=false traced block is not canonical (any flag byte with
		// bit 0 clear decodes to it), so compare payload-exactness instead of
		// raw bytes when a trace block was present.
		if len(reenc) > len(data) {
			t.Fatalf("decoded frame longer than input: %d > %d", len(reenc), len(data))
		}
		got, gotTC, err := readFrame(bufio.NewReader(bytes.NewReader(reenc)))
		if err != nil || !bytes.Equal(got, payload) || gotTC != tc {
			t.Fatalf("re-encoded frame does not round trip: %v", err)
		}
	})
}

// TestReadFrameOversize proves the defensive bound still applies with the
// flag bit masked out: a hostile length prefix cannot force a huge
// allocation.
func TestReadFrameOversize(t *testing.T) {
	enc := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(enc))); err == nil {
		t.Fatal("oversize frame accepted")
	}
	// Oversize with the trace flag set must fail the same way.
	enc = binary.LittleEndian.AppendUint32(nil, (maxFrame+1)|uint32(1<<31))
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(enc))); err == nil {
		t.Fatal("oversize traced frame accepted")
	}
}

// TestTracedFrameTruncatedBlock: a flagged frame whose trace block is cut
// short must error, not deliver a half-read context.
func TestTracedFrameTruncatedBlock(t *testing.T) {
	enc := appendFrame(nil, []byte("x"), testCtx(true))
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(enc[:len(enc)-5]))); err != io.ErrUnexpectedEOF {
		t.Fatalf("got %v, want unexpected EOF", err)
	}
}
