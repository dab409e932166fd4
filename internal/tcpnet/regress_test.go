package tcpnet_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"unidir/internal/obs"
	"unidir/internal/tcpnet"
	"unidir/internal/transport"
)

// TestSelfSendCopiesPayload is the regression test for the self-send
// aliasing bug: Send(to==self) used to deliver the caller's slice by
// reference while the remote path copies in readLoop, so a caller reusing
// its encode buffer corrupted self-delivered messages in flight.
func TestSelfSendCopiesPayload(t *testing.T) {
	nets := newCluster(t, 1)
	buf := []byte("original")
	if err := nets[0].Send(0, buf); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// Reuse the buffer immediately, as a pooled encoder would.
	copy(buf, "CLOBBERED")
	env := recvOne(t, nets[0], time.Second)
	if !bytes.Equal(env.Payload, []byte("original")) {
		t.Fatalf("self-delivered payload aliased the sender's buffer: got %q", env.Payload)
	}
}

// TestSelfSendAfterClose: the self-send path must honor Close like the
// remote path does.
func TestSelfSendAfterClose(t *testing.T) {
	nets := newCluster(t, 1)
	if err := nets[0].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := nets[0].Send(0, []byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}

// TestConcurrentSendClose hammers Send from several goroutines while Close
// runs, under -race. Every Send must either succeed or report
// transport.ErrClosed — never another error — and a Send issued after Close
// has returned must always report ErrClosed. (The exact lost-push
// interleaving is pinned deterministically by TestSendCloseRaceWindow in the
// internal test file; this test covers the real concurrent shutdown.)
func TestConcurrentSendClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		nets := newCluster(t, 2)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				payload := []byte{byte(g)}
				for {
					if err := nets[0].Send(1, payload); err != nil {
						if !errors.Is(err, transport.ErrClosed) {
							t.Errorf("Send during Close: %v", err)
						}
						return
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		if err := nets[0].Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wg.Wait()
		if err := nets[0].Send(1, []byte("late")); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Send after Close = %v, want ErrClosed", err)
		}
	}
}

// TestMetricsCountTraffic exercises WithMetrics end to end: frames and bytes
// move, batch sizes are observed, and tx/rx totals agree once the receiver
// has drained everything.
func TestMetricsCountTraffic(t *testing.T) {
	reg := obs.NewRegistry()
	nets := newCluster(t, 2, tcpnet.WithMetrics(reg))
	const count = 50
	for i := 0; i < count; i++ {
		if err := nets[0].Send(1, []byte(fmt.Sprintf("m-%03d", i))); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < count; i++ {
		recvOne(t, nets[1], 5*time.Second)
	}
	// The sender counts a batch (frames, then bytes) after its flush
	// returns, so the receiver can drain all of it first: wait until the
	// sender's byte count — its last — covers everything received.
	var s obs.Snapshot
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s = reg.Snapshot()
		if s.CounterSum("tcpnet_tx_bytes_total") >= s.CounterSum("tcpnet_rx_bytes_total") || time.Now().After(deadline) {
			break
		}
	}
	tx := s.CounterSum("tcpnet_tx_frames_total")
	rx := s.CounterSum("tcpnet_rx_frames_total")
	if tx != count || rx != count {
		t.Fatalf("tx=%d rx=%d, want %d each\n%+v", tx, rx, count, s.Counters)
	}
	if got := s.CounterSum("tcpnet_tx_bytes_total"); got != s.CounterSum("tcpnet_rx_bytes_total") || got == 0 {
		t.Fatalf("bytes tx=%d rx=%d", got, s.CounterSum("tcpnet_rx_bytes_total"))
	}
	if got := s.HistogramCount("tcpnet_batch_frames"); got == 0 || got > count {
		t.Fatalf("batch observations = %d, want 1..%d", got, count)
	}
	if got := s.CounterSum("tcpnet_dials_total"); got == 0 {
		t.Fatal("no dials counted")
	}
	// Metrics must be delivered, not required: a metrics-less endpoint still
	// works (every handle is nil).
	bare := newCluster(t, 1)
	if err := bare[0].Send(0, []byte("ok")); err != nil {
		t.Fatalf("Send without metrics: %v", err)
	}
	env, err := bare[0].Recv(context.Background())
	if err != nil || string(env.Payload) != "ok" {
		t.Fatalf("Recv without metrics: %v %q", err, env.Payload)
	}
}

// TestWriteTimeoutUnwedgeCounted: a peer that accepts connections but never
// reads eventually blocks the sender in a kernel-buffer-full write; the
// write deadline must trip, the stalled connection must be dropped, and the
// unwedge must be visible under its dedicated counter (regression: it used
// to be indistinguishable from an ordinary conn drop).
func TestWriteTimeoutUnwedgeCounted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	var held []net.Conn
	var heldMu sync.Mutex
	defer func() {
		heldMu.Lock()
		for _, c := range held {
			_ = c.Close()
		}
		heldMu.Unlock()
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c) // accept and never read
			heldMu.Unlock()
		}
	}()

	reg := obs.NewRegistry()
	cfg := tcpnet.Config{0: "127.0.0.1:0", 1: ln.Addr().String()}
	nt, err := tcpnet.New(0, cfg,
		tcpnet.WithWriteTimeout(100*time.Millisecond),
		tcpnet.WithMetrics(reg))
	if err != nil {
		t.Fatalf("tcpnet.New: %v", err)
	}
	defer nt.Close()

	// Keep the outbound queue loaded with large frames until the kernel
	// buffers fill and the deadline expires.
	payload := make([]byte, 256<<10)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for i := 0; i < 8; i++ {
			if err := nt.Send(1, payload); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		s := reg.Snapshot()
		if s.CounterSum("tcpnet_write_timeout_unwedges_total") >= 1 {
			if s.CounterSum("tcpnet_conn_drops_total") < 1 {
				t.Fatal("unwedge counted without a conn drop")
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("write deadline never tripped the unwedge counter")
}

// TestQueueBoundDropsCounted: with WithQueueBound, frames past the bound for
// an unreachable peer are dropped (Send still reports acceptance — the
// semantics stay lossy-tolerated) and counted, and the queue stays bounded.
func TestQueueBoundDropsCounted(t *testing.T) {
	// An address that refuses connections: bind a listener, note the port,
	// close it again.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := ln.Addr().String()
	_ = ln.Close()

	const bound = 4
	reg := obs.NewRegistry()
	cfg := tcpnet.Config{0: "127.0.0.1:0", 1: deadAddr}
	nt, err := tcpnet.New(0, cfg,
		tcpnet.WithQueueBound(bound),
		tcpnet.WithDialTimeout(50*time.Millisecond),
		tcpnet.WithMetrics(reg))
	if err != nil {
		t.Fatalf("tcpnet.New: %v", err)
	}
	defer nt.Close()

	// First frame wakes the sender; give it time to pop the frame and start
	// failing dials so the queue accounting below is deterministic.
	if err := nt.Send(1, []byte("wake")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	time.Sleep(200 * time.Millisecond)

	const extra = bound + 6
	for i := 0; i < extra; i++ {
		if err := nt.Send(1, []byte(fmt.Sprintf("f-%d", i))); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if got := nt.QueueDepth(1); got > bound {
		t.Fatalf("QueueDepth = %d, want <= %d", got, bound)
	}
	drops := reg.Snapshot().CounterSum("tcpnet_queue_dropped_frames_total")
	if drops < extra-bound {
		t.Fatalf("queue drops = %d, want >= %d", drops, extra-bound)
	}
}
