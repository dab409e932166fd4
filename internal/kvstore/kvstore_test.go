package kvstore

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"
	"time"

	"unidir/internal/smr"
	"unidir/internal/transport"
	"unidir/internal/types"
	"unidir/internal/wire"
)

func TestApplyPutGetDel(t *testing.T) {
	s := New()
	if res := s.Apply(EncodePut("k", []byte("v"))); res[0] != statusOK {
		t.Fatalf("put status = %d", res[0])
	}
	res := s.Apply(EncodeGet("k"))
	if res[0] != statusOK || string(res[1:]) != "v" {
		t.Fatalf("get = %v", res)
	}
	if res := s.Apply(EncodeDel("k")); res[0] != statusOK {
		t.Fatalf("del status = %d", res[0])
	}
	if res := s.Apply(EncodeGet("k")); res[0] != statusNotFound {
		t.Fatalf("get after del status = %d", res[0])
	}
	if res := s.Apply(EncodeDel("k")); res[0] != statusNotFound {
		t.Fatalf("del missing status = %d", res[0])
	}
}

func TestApplyMalformedCommands(t *testing.T) {
	s := New()
	for _, cmd := range [][]byte{nil, {}, {99}, {opPut, 1, 2}, append(EncodeGet("k"), 0xFF)} {
		res := s.Apply(cmd)
		if len(res) == 0 || res[0] != statusBadCmd {
			t.Fatalf("Apply(%v) = %v, want BadCmd", cmd, res)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("malformed commands mutated state: %d keys", s.Len())
	}
}

func TestDeterminism(t *testing.T) {
	// Identical command sequences yield identical result sequences — the
	// property SMR depends on.
	f := func(keys []uint8, vals [][]byte) bool {
		a, b := New(), New()
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			key := string([]byte{keys[i] % 8}) // few keys -> many collisions
			var cmd []byte
			switch i % 3 {
			case 0:
				cmd = EncodePut(key, vals[i])
			case 1:
				cmd = EncodeGet(key)
			default:
				cmd = EncodeDel(key)
			}
			if !bytes.Equal(a.Apply(cmd), b.Apply(cmd)) {
				return false
			}
		}
		return a.Len() == b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyValueRoundTrip(t *testing.T) {
	s := New()
	s.Apply(EncodePut("empty", nil))
	res := s.Apply(EncodeGet("empty"))
	if res[0] != statusOK || len(res) != 1 {
		t.Fatalf("get empty = %v", res)
	}
}

// TestApplyOverwriteAllocs pins a replica's write: a PUT to an existing key
// with a value of the same length writes over the stored bytes, looks the
// key up without converting it, and answers with the shared status result.
// The parent's Apply made three allocations: the key string, the value copy
// and the status byte.
func TestApplyOverwriteAllocs(t *testing.T) {
	s := New()
	s.Apply(EncodePut("key", []byte("first")))
	cmd := EncodePut("key", []byte("again"))
	got := testing.AllocsPerRun(100, func() {
		if res := s.Apply(cmd); len(res) != 1 || res[0] != statusOK {
			t.Fatalf("put status = %v", res)
		}
	})
	if got != 0 {
		t.Fatalf("PUT to an existing key: %v allocations, want 0", got)
	}
	// The store owns its values: overwriting one leaves earlier results and
	// the command bytes alone.
	before := s.Apply(EncodeGet("key"))
	s.Apply(EncodePut("key", []byte("third")))
	if string(before[1:]) != "again" || string(s.Apply(EncodeGet("key"))[1:]) != "third" {
		t.Fatalf("GET after overwrite = %q, then %q", before[1:], s.Apply(EncodeGet("key"))[1:])
	}
	if !bytes.Equal(cmd, EncodePut("key", []byte("again"))) {
		t.Fatal("Apply wrote into its command")
	}
}

// TestEncodePutLayout: appendPut writes the wire layout by hand; it must
// match the same fields written by a wire.Encoder.
func TestEncodePutLayout(t *testing.T) {
	for _, value := range [][]byte{nil, []byte("v"), bytes.Repeat([]byte{7}, 300)} {
		e := wire.NewEncoder(0)
		e.Byte(opPut)
		e.String("key")
		e.BytesField(value)
		if got := EncodePut("key", value); !bytes.Equal(got, e.Bytes()) {
			t.Fatalf("EncodePut = %x, want %x", got, e.Bytes())
		}
	}
}

// nopNet is a client endpoint that accepts every frame and delivers none.
type nopNet struct{}

func (nopNet) Self() types.ProcessID              { return 9 }
func (nopNet) Send(types.ProcessID, []byte) error { return nil }
func (nopNet) Close() error                       { return nil }
func (nopNet) Recv(ctx context.Context) (transport.Envelope, error) {
	<-ctx.Done()
	return transport.Envelope{}, ctx.Err()
}

// TestPutAsyncAllocs pins a PUT's client path: the command is built on the
// stack and copied into the request frame, so the PUT costs what Submit does
// (the call, its done channel, the frame) and no command buffer of its own.
func TestPutAsyncAllocs(t *testing.T) {
	p, err := smr.NewPipeline(nopNet{}, []types.ProcessID{0, 1, 2}, 2, 9, time.Hour, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := NewPipeClient(p)
	value := bytes.Repeat([]byte{1}, 64)
	got := testing.AllocsPerRun(100, func() {
		if _, err := c.PutAsync(context.Background(), "key", value); err != nil {
			t.Fatal(err)
		}
	})
	// The parent also built the command in a buffer of its own (EncodePut)
	// and allocated the call apart from the pipeline's record of it.
	const parent, want = 5, 3
	if got != want {
		t.Fatalf("PutAsync: %v allocations, want %d (the parent's code path made %d)", got, want, parent)
	}
}
