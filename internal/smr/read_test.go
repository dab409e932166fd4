package smr

import (
	"bytes"
	"testing"

	"unidir/internal/types"
	"unidir/internal/wire"
)

func TestReadRequestRoundTrip(t *testing.T) {
	req := ReadRequest{Client: 9, Num: 77, Op: []byte("get alpha")}
	got, err := DecodeReadRequest(req.Encode())
	if err != nil {
		t.Fatalf("DecodeReadRequest: %v", err)
	}
	if got.Client != req.Client || got.Num != req.Num || !bytes.Equal(got.Op, req.Op) {
		t.Fatalf("round trip: got %+v want %+v", got, req)
	}
}

func TestReadReplyRoundTrip(t *testing.T) {
	rep := ReadReply{
		Replica: types.ProcessID(2), Client: 9, Num: 77,
		Result: []byte("value"), Code: ReadLeased, ExecSeq: 1234,
	}
	got, err := DecodeReadReply(rep.Encode())
	if err != nil {
		t.Fatalf("DecodeReadReply: %v", err)
	}
	if got.Replica != rep.Replica || got.Client != rep.Client || got.Num != rep.Num ||
		!bytes.Equal(got.Result, rep.Result) || got.Code != rep.Code || got.ExecSeq != rep.ExecSeq {
		t.Fatalf("round trip: got %+v want %+v", got, rep)
	}
}

// TestDecodeReplyRejectsReadReply guards the client recvLoop's reply-type
// discrimination: a ReadReply payload must NOT decode as a write Reply (its
// trailing ExecSeq makes the strict decode fail), or read replies would
// complete write calls.
func TestDecodeReplyRejectsReadReply(t *testing.T) {
	rep := ReadReply{
		Replica: types.ProcessID(1), Client: 9, Num: 77,
		Result: []byte("value"), Code: ReadLeased, ExecSeq: 42,
	}
	if _, err := DecodeReply(rep.Encode()); err == nil {
		t.Fatal("DecodeReply accepted a ReadReply payload")
	}
}

func TestReadVoteKeyGroupsOnStateOnly(t *testing.T) {
	a := ReadReply{Replica: 0, Client: 1, Num: 2, Result: []byte("v"), Code: ReadFallback, ExecSeq: 7}
	b := ReadReply{Replica: 2, Client: 1, Num: 2, Result: []byte("v"), Code: ReadFallback, ExecSeq: 7}
	if a.voteKey() != b.voteKey() {
		t.Fatal("votes from different replicas answering from the same state must match")
	}
	c := b
	c.ExecSeq = 8
	if a.voteKey() == c.voteKey() {
		t.Fatal("votes at different executed watermarks must not match")
	}
	d := b
	d.Result = []byte("w")
	if a.voteKey() == d.voteKey() {
		t.Fatal("votes with different results must not match")
	}
}

func FuzzDecodeReadRequest(f *testing.F) {
	f.Add(ReadRequest{Client: 1, Num: 2, Op: []byte("op")}.Encode())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeReadRequest(b)
		if err != nil {
			return
		}
		// Decoded values must survive a re-encode round trip.
		again, err := DecodeReadRequest(req.Encode())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if again.Client != req.Client || again.Num != req.Num || !bytes.Equal(again.Op, req.Op) {
			t.Fatalf("re-encode changed value: %+v vs %+v", again, req)
		}
	})
}

func FuzzDecodeReadReply(f *testing.F) {
	f.Add(ReadReply{Replica: 1, Client: 2, Num: 3, Result: []byte("r"), Code: ReadLeased, ExecSeq: 4}.Encode())
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := DecodeReadReply(b)
		if err != nil {
			return
		}
		again, err := DecodeReadReply(rep.Encode())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if again.voteKey() != rep.voteKey() || again.Replica != rep.Replica {
			t.Fatalf("re-encode changed value: %+v vs %+v", again, rep)
		}
	})
}

func TestReadRequestBatchRoundTrip(t *testing.T) {
	reqs := []ReadRequest{
		{Client: 9, Num: 1, Op: []byte("get a")},
		{Client: 9, Num: 2, Op: nil},
		{Client: 9, Num: 3, Op: []byte("get c")},
	}
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		bodies[i] = r.Encode()
	}
	got, err := DecodeReadRequestBatch(EncodeReadRequestBatch(bodies))
	if err != nil {
		t.Fatalf("DecodeReadRequestBatch: %v", err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("len: got %d want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i].Client != reqs[i].Client || got[i].Num != reqs[i].Num || !bytes.Equal(got[i].Op, reqs[i].Op) {
			t.Fatalf("element %d: got %+v want %+v", i, got[i], reqs[i])
		}
	}
}

func TestReadReplyBatchRoundTrip(t *testing.T) {
	reps := []ReadReply{
		{Replica: 0, Client: 9, Num: 1, Result: []byte("v1"), Code: ReadLeased, ExecSeq: 10},
		{Replica: 0, Client: 9, Num: 2, Result: nil, Code: ReadFallback, ExecSeq: 11},
	}
	bodies := make([][]byte, len(reps))
	for i, r := range reps {
		bodies[i] = r.Encode()
	}
	got, err := DecodeReadReplyBatch(EncodeReadReplyBatch(bodies))
	if err != nil {
		t.Fatalf("DecodeReadReplyBatch: %v", err)
	}
	if len(got) != len(reps) {
		t.Fatalf("len: got %d want %d", len(got), len(reps))
	}
	for i := range reps {
		if got[i].voteKey() != reps[i].voteKey() || got[i].Replica != reps[i].Replica ||
			got[i].Num != reps[i].Num || !bytes.Equal(got[i].Result, reps[i].Result) {
			t.Fatalf("element %d: got %+v want %+v", i, got[i], reps[i])
		}
	}
}

// TestBatchSentinelDiscrimination guards both recvLoop dispatch orders: a
// batch frame must not decode as any single-message type, and no single
// wire form (whose leading field is a real process or client ID, never
// ^uint64(0)) may decode as a batch.
func TestBatchSentinelDiscrimination(t *testing.T) {
	reqBatch := EncodeReadRequestBatch([][]byte{ReadRequest{Client: 1, Num: 2, Op: []byte("x")}.Encode()})
	repBatch := EncodeReadReplyBatch([][]byte{ReadReply{Replica: 1, Client: 2, Num: 3, Result: []byte("y")}.Encode()})
	if _, err := DecodeReadRequest(reqBatch); err == nil {
		t.Fatal("DecodeReadRequest accepted a batch frame")
	}
	if _, err := DecodeReadReply(repBatch); err == nil {
		t.Fatal("DecodeReadReply accepted a batch frame")
	}
	if _, err := DecodeReply(repBatch); err == nil {
		t.Fatal("DecodeReply accepted a read-reply batch frame")
	}
	single := ReadReply{Replica: 1, Client: 2, Num: 3, Result: []byte("y"), Code: ReadLeased, ExecSeq: 4}.Encode()
	if _, err := DecodeReadReplyBatch(single); err == nil {
		t.Fatal("DecodeReadReplyBatch accepted a single-reply frame")
	}
	if _, err := DecodeReadRequestBatch(ReadRequest{Client: 1, Num: 2, Op: []byte("x")}.Encode()); err == nil {
		t.Fatal("DecodeReadRequestBatch accepted a single-request frame")
	}
}

// TestBatchDecodeBoundsCount guards the decoder's count sanity check: a
// frame claiming more elements than its bytes could possibly hold must be
// rejected before any allocation sized by the claim.
func TestBatchDecodeBoundsCount(t *testing.T) {
	e := wire.NewEncoder(32)
	e.Uint64(batchSentinel)
	e.Uint64(1 << 40) // absurd element count, almost no payload
	if _, err := DecodeReadReplyBatch(e.Bytes()); err == nil {
		t.Fatal("DecodeReadReplyBatch accepted an absurd count")
	}
	if _, err := DecodeReadRequestBatch(e.Bytes()); err == nil {
		t.Fatal("DecodeReadRequestBatch accepted an absurd count")
	}
}

func FuzzDecodeReadRequestBatch(f *testing.F) {
	f.Add(EncodeReadRequestBatch([][]byte{ReadRequest{Client: 1, Num: 2, Op: []byte("op")}.Encode()}))
	f.Add(EncodeReadRequestBatch(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		reqs, err := DecodeReadRequestBatch(b)
		if err != nil {
			return
		}
		bodies := make([][]byte, len(reqs))
		for i, r := range reqs {
			bodies[i] = r.Encode()
		}
		again, err := DecodeReadRequestBatch(EncodeReadRequestBatch(bodies))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(again) != len(reqs) {
			t.Fatalf("re-encode changed length: %d vs %d", len(again), len(reqs))
		}
		for i := range reqs {
			if again[i].Client != reqs[i].Client || again[i].Num != reqs[i].Num || !bytes.Equal(again[i].Op, reqs[i].Op) {
				t.Fatalf("re-encode changed element %d", i)
			}
		}
	})
}

func FuzzDecodeReadReplyBatch(f *testing.F) {
	f.Add(EncodeReadReplyBatch([][]byte{ReadReply{Replica: 1, Client: 2, Num: 3, Result: []byte("r"), Code: ReadLeased, ExecSeq: 4}.Encode()}))
	f.Add(EncodeReadReplyBatch(nil))
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		reps, err := DecodeReadReplyBatch(b)
		if err != nil {
			return
		}
		bodies := make([][]byte, len(reps))
		for i, r := range reps {
			bodies[i] = r.Encode()
		}
		again, err := DecodeReadReplyBatch(EncodeReadReplyBatch(bodies))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(again) != len(reps) {
			t.Fatalf("re-encode changed length: %d vs %d", len(again), len(reps))
		}
		for i := range reps {
			if again[i].voteKey() != reps[i].voteKey() || again[i].Replica != reps[i].Replica {
				t.Fatalf("re-encode changed element %d", i)
			}
		}
	})
}
