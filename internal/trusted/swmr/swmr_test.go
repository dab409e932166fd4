package swmr

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"unidir/internal/simnet"
	"unidir/internal/types"
)

func newStore(t *testing.T, n int) *Store {
	t.Helper()
	m, err := types.NewMembership(n, (n-1)/2)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	s, err := NewStore(m)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s
}

func TestACLEnforced(t *testing.T) {
	s := newStore(t, 3)
	if err := s.Append(1, 2, []byte("intrusion")); !errors.Is(err, ErrACL) {
		t.Fatalf("Append by non-owner err = %v, want ErrACL", err)
	}
	if err := s.Write(0, 1, []byte("intrusion")); !errors.Is(err, ErrACL) {
		t.Fatalf("Write by non-owner err = %v, want ErrACL", err)
	}
	// Reads are open to all.
	if _, _, err := s.Read(1, 2); err != nil {
		t.Fatalf("Read by non-owner: %v", err)
	}
}

func TestNoSuchObject(t *testing.T) {
	s := newStore(t, 3)
	if err := s.Append(0, 7, []byte("x")); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("Append err = %v, want ErrNoSuchObject", err)
	}
	if _, _, err := s.Read(0, -1); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("Read err = %v, want ErrNoSuchObject", err)
	}
}

func TestRegisterSemantics(t *testing.T) {
	s := newStore(t, 3)
	if _, ok, err := s.Read(1, 0); err != nil || ok {
		t.Fatalf("Read empty = ok=%v err=%v, want not-found", ok, err)
	}
	if err := s.Write(0, 0, []byte("v1")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := s.Write(0, 0, []byte("v2")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	v, ok, err := s.Read(2, 0)
	if err != nil || !ok || string(v) != "v2" {
		t.Fatalf("Read = %q ok=%v err=%v, want v2", v, ok, err)
	}
}

func TestAppendAndReadLogOffsets(t *testing.T) {
	s := newStore(t, 3)
	for i := 0; i < 5; i++ {
		if err := s.Append(1, 1, []byte{byte(i)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	entries, err := s.ReadLog(2, 1, 3)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(entries) != 2 || entries[0][0] != 3 || entries[1][0] != 4 {
		t.Fatalf("ReadLog(from=3) = %v, want entries 3 and 4", entries)
	}
	// Offsets beyond the end and negative offsets are clamped.
	if entries, err = s.ReadLog(2, 1, 99); err != nil || len(entries) != 0 {
		t.Fatalf("ReadLog(from=99) = %v, %v", entries, err)
	}
	if entries, err = s.ReadLog(2, 1, -4); err != nil || len(entries) != 5 {
		t.Fatalf("ReadLog(from=-4) returned %d entries, err %v", len(entries), err)
	}
}

func TestReadCopiesAreIsolated(t *testing.T) {
	s := newStore(t, 2)
	val := []byte("shared")
	if err := s.Write(0, 0, val); err != nil {
		t.Fatalf("Write: %v", err)
	}
	val[0] = 'X' // caller mutates its buffer after the write
	got, _, err := s.Read(1, 0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(got) != "shared" {
		t.Fatalf("store aliased caller buffer: %q", got)
	}
	got[0] = 'Y' // reader mutates its copy
	again, _, _ := s.Read(1, 0)
	if string(again) != "shared" {
		t.Fatalf("reader mutation leaked into store: %q", again)
	}
}

func TestWriteThenSnapshotSeesOwnWrite(t *testing.T) {
	// The happens-before property the unidirectionality proof rests on: a
	// snapshot taken after a completed append must include that append.
	s := newStore(t, 4)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			self := types.ProcessID(p)
			if err := s.Append(self, self, []byte{byte(p)}); err != nil {
				errs[p] = err
				return
			}
			snap, err := s.Snapshot(self)
			if err != nil {
				errs[p] = err
				return
			}
			if len(snap[p]) == 0 || snap[p][len(snap[p])-1][0] != byte(p) {
				errs[p] = fmt.Errorf("p%d snapshot missing own append", p)
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuickLogIsAppendOnly(t *testing.T) {
	// Property: after any sequence of appends by the owner, ReadLog(0)
	// returns exactly those values in order.
	f := func(values [][]byte) bool {
		m, _ := types.NewMembership(2, 0)
		s, err := NewStore(m)
		if err != nil {
			return false
		}
		for _, v := range values {
			if err := s.Append(0, 0, v); err != nil {
				return false
			}
		}
		got, err := s.ReadLog(1, 0, 0)
		if err != nil || len(got) != len(values) {
			return false
		}
		for i := range values {
			if !bytes.Equal(got[i], values[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- RPC ---

// newRPCFixture builds a simnet with n protocol processes plus one extra
// node hosting the memory server, and returns connected clients.
func newRPCFixture(t *testing.T, n int) (clients []*Client, cleanup func()) {
	t.Helper()
	protoM, err := types.NewMembership(n, (n-1)/2)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	netM, err := types.NewMembership(n+1, (n-1)/2) // last node = memory server
	if err != nil {
		t.Fatalf("net membership: %v", err)
	}
	net, err := simnet.New(netM)
	if err != nil {
		t.Fatalf("simnet: %v", err)
	}
	store, err := NewStore(protoM)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	serverID := types.ProcessID(n)
	server := NewServer(store, net.Endpoint(serverID))
	clients = make([]*Client, n)
	for i := 0; i < n; i++ {
		clients[i] = NewClient(net.Endpoint(types.ProcessID(i)), serverID)
	}
	cleanup = func() {
		for _, c := range clients {
			_ = c.Close()
		}
		_ = server.Close()
		net.Close()
	}
	return clients, cleanup
}

func TestRPCAppendReadLog(t *testing.T) {
	clients, cleanup := newRPCFixture(t, 3)
	defer cleanup()

	if err := clients[0].Append([]byte("from-zero")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := clients[0].Append([]byte("again")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	entries, err := clients[2].ReadLog(0, 0)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(entries) != 2 || string(entries[0]) != "from-zero" || string(entries[1]) != "again" {
		t.Fatalf("ReadLog = %q", entries)
	}
}

func TestRPCWriteRead(t *testing.T) {
	clients, cleanup := newRPCFixture(t, 2)
	defer cleanup()

	if _, ok, err := clients[1].Read(0); err != nil || ok {
		t.Fatalf("Read empty: ok=%v err=%v", ok, err)
	}
	if err := clients[0].Write([]byte("rpc-value")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	v, ok, err := clients[1].Read(0)
	if err != nil || !ok || string(v) != "rpc-value" {
		t.Fatalf("Read = %q ok=%v err=%v", v, ok, err)
	}
}

func TestRPCACLEnforcedByChannelIdentity(t *testing.T) {
	// The ACL check uses the authenticated channel identity, not anything
	// the caller claims: the Memory interface only lets a client modify its
	// own object, and the server checks Envelope.From, so even a raw
	// request naming another owner is refused.
	clients, cleanup := newRPCFixture(t, 2)
	defer cleanup()
	// Client API cannot even express writing someone else's object, so go
	// under it: hand-craft the call through the same code path.
	body, err := clients[1].call(opWrite, 0 /* victim owner */, 0, []byte("forged"))
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if err := decodeStatusForTest(body); !errors.Is(err, ErrACL) {
		t.Fatalf("forged write err = %v, want ErrACL", err)
	}
	if _, ok, _ := clients[0].Read(0); ok {
		t.Fatal("victim object was modified")
	}
}

func TestRPCReadErrorsPropagate(t *testing.T) {
	clients, cleanup := newRPCFixture(t, 2)
	defer cleanup()
	if _, _, err := clients[0].Read(9); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("Read(9) err = %v, want ErrNoSuchObject", err)
	}
}

func TestRPCConcurrentClients(t *testing.T) {
	clients, cleanup := newRPCFixture(t, 4)
	defer cleanup()
	const perClient = 25
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				if err := c.Append([]byte{byte(i), byte(j)}); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range clients {
		entries, err := clients[0].ReadLog(types.ProcessID(i), 0)
		if err != nil {
			t.Fatalf("ReadLog(%d): %v", i, err)
		}
		if len(entries) != perClient {
			t.Fatalf("object %d has %d entries, want %d", i, len(entries), perClient)
		}
		for j, e := range entries {
			if len(e) != 2 || e[0] != byte(i) || e[1] != byte(j) {
				t.Fatalf("object %d entry %d = %v: per-owner FIFO violated", i, j, e)
			}
		}
	}
}

func TestClientCloseUnblocksNothingPending(t *testing.T) {
	clients, cleanup := newRPCFixture(t, 2)
	defer cleanup()
	if err := clients[0].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := clients[0].Append([]byte("x")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Append after close err = %v, want ErrClientClosed", err)
	}
}

// decodeStatusForTest exposes reply-status decoding to the ACL test.
func decodeStatusForTest(body []byte) error {
	d := newTestDecoder(body)
	return decodeStatus(d)
}
