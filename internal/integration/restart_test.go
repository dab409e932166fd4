package integration_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/minbft"
	"unidir/internal/sig"
	"unidir/internal/smr"
	"unidir/internal/tcpnet"
	"unidir/internal/trusted/ctrstore"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

// TestMinBFTCrashRestartOverTCP kills a checkpointing replica mid-load and
// restarts it from its data directory: the counter WAL rehydrates the
// trusted counter monotonically, the persisted stable checkpoint seeds the
// state machine, and state transfer over real TCP catches it up. The
// cluster never stops serving, nothing is executed twice, and the trusted
// counter never regresses.
func TestMinBFTCrashRestartOverTCP(t *testing.T) {
	const (
		n, f     = 3, 1
		interval = 4
		seed     = 63
	)
	m, err := types.NewMembership(n, f)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	nets := newTCPCluster(t, n+1) // +1 client
	cfg := make(tcpnet.Config, n+1)
	for i := 0; i <= n; i++ {
		cfg[types.ProcessID(i)] = nets[i].Addr()
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}

	// startReplica builds one replica process worth of state: a fresh
	// universe derived from the shared seed (a restarted OS process holds
	// no in-memory counter state), the reopened counter WAL, and a replica
	// that loads whatever checkpoint its data dir holds.
	startReplica := func(i int, tr *tcpnet.Net, log *smr.ExecutionLog) (*minbft.Replica, *trinc.Device, *ctrstore.Store) {
		t.Helper()
		tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("universe: %v", err)
		}
		cs, err := ctrstore.Open(filepath.Join(dirs[i], "usig.wal"))
		if err != nil {
			t.Fatalf("ctrstore.Open: %v", err)
		}
		dev := tu.Devices[i]
		if err := dev.Persist(cs); err != nil {
			t.Fatalf("Persist: %v", err)
		}
		rep, err := minbft.New(m, tr, dev, tu.Verifier, kvstore.New(),
			minbft.WithRequestTimeout(2*time.Second),
			minbft.WithEngineConfig(smr.EngineConfig{CheckpointInterval: interval, ExecutionLog: log}),
			minbft.WithDataDir(dirs[i]))
		if err != nil {
			t.Fatalf("minbft.New(%d): %v", i, err)
		}
		return rep, dev, cs
	}

	replicas := make([]*minbft.Replica, n)
	logs := make([]*smr.ExecutionLog, n)
	for i := 0; i < n; i++ {
		logs[i] = &smr.ExecutionLog{}
		rep, _, _ := startReplica(i, nets[i], logs[i])
		replicas[i] = rep
	}
	defer func() {
		for _, r := range replicas {
			if r != nil {
				_ = r.Close()
			}
		}
	}()

	base, err := smr.NewClient(nets[n], m.All(), m.FPlusOne(), uint64(n), 200*time.Millisecond,
		smr.WithRequestEncoder(minbft.EncodeRequestEnvelope))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	kv := kvstore.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Phase 1: commit past a checkpoint boundary so replica 2 has a stable
	// checkpoint and a counter WAL on disk.
	for i := 0; i < 6; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("pre-%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("Put pre-%d: %v", i, err)
		}
	}
	// Kill replica 2 mid-load. Closing the transport out from under it is
	// the in-process stand-in for SIGKILL: nothing flushes on the way down;
	// whatever the write-ahead paths already put on disk is all a restart
	// gets — which is exactly the guarantee under test.
	_ = nets[2].Close()
	_ = replicas[2].Close()
	replicas[2] = nil

	// Phase 2: the surviving f+1 keep committing and GC the log out from
	// under the dead replica.
	for i := 0; i < 6; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("down-%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("Put down-%d: %v", i, err)
		}
	}

	// Restart replica 2 on its old address with its old data dir.
	tr2, err := tcpnet.New(2, cfg)
	if err != nil {
		t.Fatalf("tcpnet.New restart: %v", err)
	}
	t.Cleanup(func() { _ = tr2.Close() })
	log2 := &smr.ExecutionLog{}
	rep2, dev2, cs2 := startReplica(2, tr2, log2)
	replicas[2] = rep2

	// Counter monotonicity across the crash: the rehydrated device starts
	// at the WAL's high-water mark, so it can never re-attest a value the
	// pre-crash incarnation released.
	rehydrated := dev2.LastAttested(0)
	if rehydrated == 0 {
		t.Fatal("restarted device rehydrated to zero; counter state was lost")
	}
	if wal := cs2.Last()[0]; types.SeqNum(wal) != rehydrated {
		t.Fatalf("device rehydrated to %d but WAL records %d", rehydrated, wal)
	}

	// Phase 3: keep loading until the restarted replica has installed a
	// stable checkpoint at or beyond everything committed while it was
	// down, proving state transfer completed.
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; rep2.Footprint().StableCount < 12; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never caught up: %+v", rep2.Footprint())
		}
		if err := kv.Put(ctx, fmt.Sprintf("post-%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("Put post-%d: %v", i, err)
		}
	}

	// The restarted replica must execute fresh slots too, with a counter
	// strictly above its pre-crash high-water mark.
	finalOp := kvstore.EncodePut("rejoined", []byte("yes"))
	if err := kv.Put(ctx, "rejoined", []byte("yes")); err != nil {
		t.Fatalf("Put rejoined: %v", err)
	}
	for {
		found := false
		for _, cmd := range log2.Snapshot() {
			req, err := smr.DecodeRequest(cmd)
			if err != nil {
				t.Fatalf("restarted replica: undecodable log entry: %v", err)
			}
			if bytes.Equal(req.Op, finalOp) {
				found = true
				break
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted replica never executed a post-restart request")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := dev2.LastAttested(0); got <= rehydrated {
		t.Fatalf("counter did not advance after restart: %d <= %d", got, rehydrated)
	}

	// No loss, no double execution: the survivors hold the full history
	// exactly once, and agree with each other and with the restarted
	// replica's (gappy but duplicate-free) log.
	if err := smr.CheckPrefix(logs[0].Snapshot(), logs[1].Snapshot()); err != nil {
		t.Fatalf("survivor logs diverged: %v", err)
	}
	for _, log := range []*smr.ExecutionLog{logs[0], logs[1], log2} {
		seen := make(map[[2]uint64]bool)
		for _, cmd := range log.Snapshot() {
			req, err := smr.DecodeRequest(cmd)
			if err != nil {
				t.Fatalf("undecodable log entry: %v", err)
			}
			key := [2]uint64{req.Client, req.Num}
			if seen[key] {
				t.Fatalf("request client=%d num=%d executed twice", req.Client, req.Num)
			}
			seen[key] = true
		}
	}
}
