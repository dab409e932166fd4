package smr

import (
	"bytes"
	"testing"
)

func TestClientTableEncodeRoundTrip(t *testing.T) {
	table := NewClientTable()
	table.Executed(Request{Client: 9, Num: 4, Op: []byte("a")}, []byte("ra"))
	table.Executed(Request{Client: 2, Num: 7, Op: []byte("b")}, []byte("rb"))
	table.Executed(Request{Client: 9, Num: 5, Op: []byte("c")}, nil)

	got, err := DecodeClientTable(table.Encode())
	if err != nil {
		t.Fatalf("DecodeClientTable: %v", err)
	}
	// Dedup state survives: executed numbers stay stale, the next number is
	// fresh, and the cached reply for the last executed request is intact.
	if got.ShouldExecute(Request{Client: 9, Num: 5}) {
		t.Fatal("decoded table re-executes client 9 num 5")
	}
	if !got.ShouldExecute(Request{Client: 9, Num: 6}) {
		t.Fatal("decoded table refuses fresh client 9 num 6")
	}
	if res, ok := got.CachedReply(Request{Client: 2, Num: 7}); !ok || !bytes.Equal(res, []byte("rb")) {
		t.Fatalf("cached reply = %q, %v", res, ok)
	}
	// The encoding is canonical: decode(encode(x)) re-encodes identically,
	// which is what makes checkpoint digests comparable across replicas.
	if !bytes.Equal(got.Encode(), table.Encode()) {
		t.Fatal("re-encoded table differs; encoding is not canonical")
	}
}

func TestCheckpointStateRoundTrip(t *testing.T) {
	table := NewClientTable()
	table.Executed(Request{Client: 1, Num: 1, Op: []byte("x")}, []byte("ok"))
	app := []byte("application snapshot bytes")

	gotApp, gotTable, err := DecodeCheckpointState(EncodeCheckpointState(app, table))
	if err != nil {
		t.Fatalf("DecodeCheckpointState: %v", err)
	}
	if !bytes.Equal(gotApp, app) {
		t.Fatalf("app = %q, want %q", gotApp, app)
	}
	if gotTable.ShouldExecute(Request{Client: 1, Num: 1}) {
		t.Fatal("decoded table lost dedup state")
	}
	if _, _, err := DecodeCheckpointState([]byte("garbage")); err == nil {
		t.Fatal("DecodeCheckpointState accepted garbage")
	}
}
