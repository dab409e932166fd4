// Go-native benchmarks, one family per experiment in DESIGN.md's index
// (B1-B5), run with `go test -bench`. The gated end-to-end benchmark is
// ./bench (BENCHMARK.json); these are in-process micro-benchmarks.
package unidir_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"unidir/internal/harness"
	"unidir/internal/rounds"
	"unidir/internal/sig"
	"unidir/internal/sig/fastverify"
	"unidir/internal/simnet"
	"unidir/internal/smr"
	"unidir/internal/trusted/swmr"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

// --- B1: SRB broadcast cost by substrate, scheme, and n ---

func BenchmarkSRB(b *testing.B) {
	type builder struct {
		name   string
		build  func(types.Membership, sig.Scheme) (*harness.SRBCluster, error)
		f      func(n int) int
		signed bool
	}
	builders := []builder{
		{"trincsrb", harness.BuildTrincCluster, func(n int) int { return (n - 1) / 2 }, true},
		{"a2msrb", harness.BuildA2MCluster, func(n int) int { return (n - 1) / 2 }, true},
		{"uniround", harness.BuildUniroundCluster, func(n int) int { return (n - 1) / 2 }, true},
		{"bracha", harness.BuildBrachaCluster, func(n int) int { return (n - 1) / 3 }, false},
	}
	for _, bl := range builders {
		// bracha carries no signatures, so the scheme dimension is dropped.
		schemes := []sig.Scheme{sig.HMAC, sig.Ed25519}
		if !bl.signed {
			schemes = schemes[:1]
		}
		for _, scheme := range schemes {
			for _, n := range []int{4, 7, 10} {
				name := fmt.Sprintf("%s/%s/n=%d", bl.name, scheme, n)
				if !bl.signed {
					name = fmt.Sprintf("%s/n=%d", bl.name, n)
				}
				scheme := scheme
				b.Run(name, func(b *testing.B) {
					m := harness.MustMembership(n, bl.f(n))
					c, err := bl.build(m, scheme)
					if err != nil {
						b.Fatal(err)
					}
					defer c.Stop()
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
					defer cancel()
					payload := make([]byte, 128)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := c.Nodes[0].Broadcast(payload); err != nil {
							b.Fatal(err)
						}
						// One full broadcast = delivered by every node.
						for _, node := range c.Nodes {
							if _, err := node.Deliver(ctx); err != nil {
								b.Fatal(err)
							}
						}
					}
				})
			}
		}
	}
}

// --- B2: SMR commit cost, MinBFT vs PBFT ---

func BenchmarkSMR(b *testing.B) {
	builders := []struct {
		name  string
		build func(harness.SMRConfig) (*harness.SMRCluster, error)
	}{
		{"minbft", harness.BuildMinBFTCfg},
		{"pbft", harness.BuildPBFTCfg},
	}
	// Closed-loop: one request outstanding per round trip (batching is
	// irrelevant at this offered load; pinned to batch=1 for stability).
	for _, p := range builders {
		for _, scheme := range []sig.Scheme{sig.HMAC, sig.Ed25519} {
			for _, f := range []int{1, 2} {
				scheme := scheme
				p := p
				b.Run(fmt.Sprintf("%s/%s/f=%d", p.name, scheme, f), func(b *testing.B) {
					c, err := p.build(harness.SMRConfig{F: f, Scheme: scheme, Batch: 1})
					if err != nil {
						b.Fatal(err)
					}
					defer c.Stop()
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
					defer cancel()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := c.KV.Put(ctx, fmt.Sprintf("key-%d", i%64), []byte("value")); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
	// Pipelined: a 32-deep window offers equal load to an unbatched
	// (batch=1) and a batched (batch=64) primary — the A/B that isolates
	// what consensus batching buys.
	const window = 32
	for _, p := range builders {
		for _, batch := range []int{1, 64} {
			p := p
			batch := batch
			b.Run(fmt.Sprintf("%s/pipelined/hmac/f=1/batch=%d", p.name, batch), func(b *testing.B) {
				c, err := p.build(harness.SMRConfig{F: 1, Scheme: sig.HMAC, Batch: batch, Window: window})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Stop()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
				defer cancel()
				calls := make([]*smr.Call, 0, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					call, err := c.Pipe.PutAsync(ctx, fmt.Sprintf("key-%d", i%64), []byte("value"))
					if err != nil {
						b.Fatal(err)
					}
					calls = append(calls, call)
				}
				for _, call := range calls {
					if _, err := call.Result(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSMRTrace is the tracing-overhead A/B: the same pipelined MinBFT
// workload with tracing off, at the production default rate (1-in-64), and
// fully sampled. The acceptance bar for the tracing layer is <2% throughput
// regression at rate=64 versus rate=0.
func BenchmarkSMRTrace(b *testing.B) {
	for _, rate := range []int{0, 64, 1} {
		rate := rate
		b.Run(fmt.Sprintf("minbft/pipelined/rate=%d", rate), func(b *testing.B) {
			c, err := harness.BuildMinBFTCfg(harness.SMRConfig{
				F: 1, Scheme: sig.HMAC, Batch: 64, Window: 32, TraceRate: rate,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Stop()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			calls := make([]*smr.Call, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call, err := c.Pipe.PutAsync(ctx, fmt.Sprintf("key-%d", i%64), []byte("value"))
				if err != nil {
					b.Fatal(err)
				}
				calls = append(calls, call)
			}
			for _, call := range calls {
				if _, err := call.Result(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B5: signature fast path — single vs batch vs cached ---

// BenchmarkSigVerify isolates the fastverify layer itself: raw per-call
// verification against the keyring, the batch path with caching disabled
// (fan-out and bookkeeping overhead alone), and steady-state cache hits.
// Batch op time covers batchSize signatures — divide by batchSize to
// compare against single.
func BenchmarkSigVerify(b *testing.B) {
	const batchSize = 32
	m := harness.MustMembership(8, 2)
	for _, scheme := range []sig.Scheme{sig.Ed25519, sig.HMAC} {
		rings, err := sig.NewKeyrings(m, scheme, rand.New(rand.NewSource(7)))
		if err != nil {
			b.Fatal(err)
		}
		items := make([]fastverify.Item, batchSize)
		for i := range items {
			from := types.ProcessID(i % m.N)
			msg := make([]byte, 128)
			msg[0] = byte(i)
			items[i] = fastverify.Item{From: from, Msg: msg, Sig: rings[int(from)].Sign(msg)}
		}
		b.Run("single/"+scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				it := items[i%batchSize]
				if err := rings[0].Verify(it.From, it.Msg, it.Sig); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("batch/"+scheme.String(), func(b *testing.B) {
			v := fastverify.New(rings[0], fastverify.WithCacheSize(0), fastverify.WithNegativeCacheSize(0))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := v.VerifyAll(items); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(batchSize, "sigs/op")
		})
		b.Run("cached/"+scheme.String(), func(b *testing.B) {
			v := fastverify.New(rings[0])
			if err := v.VerifyAll(items); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := items[i%batchSize]
				if err := v.Verify(it.From, it.Msg, it.Sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B3: trusted hardware and signature microbenchmarks ---

func BenchmarkTrusted(b *testing.B) {
	m := harness.MustMembership(4, 1)
	msg := make([]byte, 128)

	for _, scheme := range []sig.Scheme{sig.Ed25519, sig.HMAC} {
		rings, err := sig.NewKeyrings(m, scheme, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run("sign/"+scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rings[0].Sign(msg)
			}
		})
		s := rings[0].Sign(msg)
		b.Run("verify/"+scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := rings[1].Verify(0, msg, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	b.Run("trinc/attest", func(b *testing.B) {
		tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(2)))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tu.Devices[0].Attest(0, types.SeqNum(i+1), msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trinc/check", func(b *testing.B) {
		tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(3)))
		if err != nil {
			b.Fatal(err)
		}
		att, err := tu.Devices[0].Attest(0, 1, msg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tu.Verifier.CheckMessage(att, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("swmr/write", func(b *testing.B) {
		store, err := swmr.NewStore(m)
		if err != nil {
			b.Fatal(err)
		}
		mem := swmr.NewLocal(store, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mem.Write(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("swmr/read", func(b *testing.B) {
		store, err := swmr.NewStore(m)
		if err != nil {
			b.Fatal(err)
		}
		mem := swmr.NewLocal(store, 0)
		if err := mem.Write(msg); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := mem.Read(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- B4: one full round per system ---

func BenchmarkRounds(b *testing.B) {
	m := harness.MustMembership(5, 2)
	run := func(b *testing.B, systems []rounds.System) {
		b.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := types.Round(i + 1)
			errCh := make(chan error, len(systems))
			for j, sys := range systems {
				go func(j int, sys rounds.System) {
					if err := sys.Send(r, []byte{byte(j)}); err != nil {
						errCh <- err
						return
					}
					_, err := sys.WaitEnd(ctx, r)
					errCh <- err
				}(j, sys)
			}
			for range systems {
				if err := <-errCh; err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run("swmr", func(b *testing.B) {
		store, err := swmr.NewStore(m)
		if err != nil {
			b.Fatal(err)
		}
		systems := make([]rounds.System, m.N)
		for i := 0; i < m.N; i++ {
			systems[i], err = rounds.NewSWMR(swmr.NewLocal(store, types.ProcessID(i)), m)
			if err != nil {
				b.Fatal(err)
			}
		}
		defer closeAll(systems)
		run(b, systems)
	})
	b.Run("async", func(b *testing.B) {
		net, err := simnet.New(m)
		if err != nil {
			b.Fatal(err)
		}
		defer net.Close()
		systems := make([]rounds.System, m.N)
		for i := 0; i < m.N; i++ {
			systems[i], err = rounds.NewAsync(net.Endpoint(types.ProcessID(i)), m)
			if err != nil {
				b.Fatal(err)
			}
		}
		defer closeAll(systems)
		run(b, systems)
	})
	b.Run("lockstep", func(b *testing.B) {
		net, err := simnet.New(m)
		if err != nil {
			b.Fatal(err)
		}
		defer net.Close()
		systems := make([]rounds.System, m.N)
		for i := 0; i < m.N; i++ {
			systems[i], err = rounds.NewLockstep(net.Endpoint(types.ProcessID(i)), m)
			if err != nil {
				b.Fatal(err)
			}
		}
		defer closeAll(systems)
		run(b, systems)
	})
}

func closeAll(systems []rounds.System) {
	for _, s := range systems {
		_ = s.Close()
	}
}
