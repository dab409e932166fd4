// Command minbft-kv runs a MinBFT-replicated key-value store over real TCP,
// one OS process per role.
//
// Start a 3-replica cluster tolerating 1 Byzantine fault (four terminals):
//
//	minbft-kv -role replica -id 0 -n 3 -f 1 -config 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7010
//	minbft-kv -role replica -id 1 -n 3 -f 1 -config 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7010
//	minbft-kv -role replica -id 2 -n 3 -f 1 -config 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7010
//	minbft-kv -role client  -id 3 -n 3 -f 1 -config 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7010 put greeting hello
//	minbft-kv -role client  -id 3 -n 3 -f 1 -config ...                                                          get greeting
//
// `rget KEY` reads through the leased fast path instead of the ordering
// path: the leader answers locally under a trusted-counter-attested lease,
// falling back to f+1 matching votes when no lease is live (-lease-term,
// UNIDIR_LEASE; see DESIGN.md §8).
//
// The config lists one address per process ID, replicas first (IDs 0..n-1),
// then client endpoints. Kill a backup replica and the cluster keeps
// serving; kill the primary and a view change recovers it.
//
// Crash-restart survival: give each replica its own -data-dir and it
// persists the trusted-counter WAL plus the latest stable checkpoint there.
// A replica killed outright (SIGKILL) and restarted with the same flags
// rehydrates its counter monotonically, announces the restart, and catches
// up via state transfer. -checkpoint sets the interval in executed batches
// (0 uses the UNIDIR_CKPT default of 128; negative disables).
//
// Demo key provisioning: every process derives the same TrInc universe from
// -seed, so trinkets and verifiers agree across OS processes. A production
// deployment would provision real hardware or per-device keys instead.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"unidir/internal/cluster"
	"unidir/internal/kvstore"
	"unidir/internal/obs"
	"unidir/internal/obs/knob"
	"unidir/internal/obs/tracing"
	"unidir/internal/sig"
	"unidir/internal/smr"
	"unidir/internal/tcpnet"
	"unidir/internal/types"
)

// replicaOpts carries the replica-only tunables from flag parsing to
// runReplica.
type replicaOpts struct {
	timeout      time.Duration
	dataDir      string
	checkpoint   int
	dialTimeout  time.Duration
	writeTimeout time.Duration
	debugAddr    string
	admitPending int
	admitRate    float64
	admitBurst   int
	paceDepth    int
	leaseTerm    time.Duration
}

func main() {
	role := flag.String("role", "", "replica or client")
	id := flag.Int("id", -1, "this process's ID (replicas: 0..n-1; clients: >= n)")
	n := flag.Int("n", 3, "number of replicas")
	f := flag.Int("f", 1, "failure threshold (n must be >= 2f+1)")
	config := flag.String("config", "", "comma-separated host:port per process ID: n replicas, then clients")
	seed := flag.Int64("seed", 42, "deterministic key seed shared by the whole demo cluster")
	timeout := flag.Duration("timeout", time.Second, "view-change request timeout (replicas)")
	dataDir := flag.String("data-dir", "", "replica persistence dir (counter WAL + stable checkpoint); empty = volatile")
	checkpoint := flag.Int("checkpoint", 0, "checkpoint interval in executed batches (0 = UNIDIR_CKPT default, negative disables)")
	dialTimeout := flag.Duration("dial-timeout", 0, "TCP dial timeout per connection attempt (0 = 2s default)")
	writeTimeout := flag.Duration("write-timeout", 0, "TCP write deadline per coalesced batch (0 = 15s default)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/trace, /debug/spans, /debug/status, /healthz, /readyz, and pprof on this host:port (replicas; empty disables)")
	admitPending := flag.Int("admit-pending", -1, "shed requests past this pending-queue depth (-1 = UNIDIR_ADMIT_PENDING default of 4096, 0 unbounded)")
	admitRate := flag.Float64("admit-rate", -1, "per-client admission rate in req/s (-1 = UNIDIR_ADMIT_RATE default, 0 unlimited)")
	admitBurst := flag.Int("admit-burst", -1, "per-client admission burst (-1 = UNIDIR_ADMIT_BURST default of rate/10)")
	paceDepth := flag.Int("pace-depth", 0, "pause proposing while a peer's send queue holds this many frames (0 = UNIDIR_PACE_DEPTH default of 4096, negative disables)")
	leaseTerm := flag.Duration("lease-term", 0, "leader lease term for the read fast path (0 = UNIDIR_LEASE default of 250ms, negative disables)")
	flag.Parse()

	ro := replicaOpts{
		timeout:      *timeout,
		dataDir:      *dataDir,
		checkpoint:   *checkpoint,
		dialTimeout:  *dialTimeout,
		writeTimeout: *writeTimeout,
		debugAddr:    *debugAddr,
		admitPending: *admitPending,
		admitRate:    *admitRate,
		admitBurst:   *admitBurst,
		paceDepth:    *paceDepth,
		leaseTerm:    *leaseTerm,
	}
	if err := run(*role, *id, *n, *f, *config, *seed, ro, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "minbft-kv:", err)
		os.Exit(1)
	}
}

func run(role string, id, n, f int, config string, seed int64, ro replicaOpts, args []string) error {
	addrs := strings.Split(config, ",")
	if config == "" || len(addrs) <= n {
		return fmt.Errorf("-config must list at least n+1 addresses (replicas then clients)")
	}
	cfg := make(tcpnet.Config, len(addrs))
	for i, addr := range addrs {
		cfg[types.ProcessID(i)] = strings.TrimSpace(addr)
	}
	m, err := types.NewMembership(n, f)
	if err != nil {
		return err
	}
	self := types.ProcessID(id)
	if _, ok := cfg[self]; !ok {
		return fmt.Errorf("id %d has no address in -config", id)
	}

	switch role {
	case "replica":
		return runReplica(m, self, cfg, seed, ro)
	case "client":
		return runClient(m, self, cfg, args)
	default:
		return fmt.Errorf("-role must be replica or client")
	}
}

// replicaSpec translates the replica flags into the group-agnostic
// cluster.Spec shared with the in-process harness. It is also the binary's
// UNIDIR_* loader — the library reads none of these: a setting whose flag
// was left at "default" is filled from its environment variable, with the
// aliases ("on", "off", "0") and the logged warning on a malformed value of
// internal/obs/knob.
func replicaSpec(m types.Membership, seed int64, ro replicaOpts) cluster.Spec {
	spec := cluster.Spec{
		Protocol: cluster.MinBFT,
		F:        m.F,
		Scheme:   sig.HMAC,
		Timeout:  ro.timeout,
		// UNIDIR_BATCH has no flag; "off" is one request per slot.
		Batch: knob.Int("UNIDIR_BATCH", smr.DefaultBatchSize, 1,
			map[string]int{"on": smr.DefaultBatchSize, "off": 1, "0": 1}),
		Ckpt:      ro.checkpoint,
		PaceDepth: ro.paceDepth,
		LeaseTerm: ro.leaseTerm,
		DataDir:   ro.dataDir,
		Seed:      seed,
	}
	if spec.Ckpt == 0 {
		spec.Ckpt = envInt("UNIDIR_CKPT", smr.DefaultCheckpointInterval)
	}
	if spec.PaceDepth == 0 {
		spec.PaceDepth = envInt("UNIDIR_PACE_DEPTH", smr.DefaultPaceDepth)
	}
	if spec.LeaseTerm == 0 {
		spec.LeaseTerm = envDuration("UNIDIR_LEASE", smr.DefaultLeaseTerm)
	}
	// Admission: environment first, then the flags override it per field
	// (in an AdmissionConfig 0 means unbounded, so the flags' "default" is -1).
	admit := smr.AdmissionConfig{
		MaxPending: knob.Int("UNIDIR_ADMIT_PENDING", smr.DefaultMaxPending, 1,
			map[string]int{"on": smr.DefaultMaxPending, "off": 0, "0": 0}),
		Rate:  knob.Float("UNIDIR_ADMIT_RATE", 0, 0, map[string]float64{"off": 0, "0": 0}),
		Burst: knob.Int("UNIDIR_ADMIT_BURST", 0, 1, nil),
	}
	if ro.admitPending >= 0 {
		admit.MaxPending = ro.admitPending
	}
	if ro.admitRate >= 0 {
		admit.Rate = ro.admitRate
	}
	if ro.admitBurst >= 0 {
		admit.Burst = ro.admitBurst
	}
	spec.Admission = &admit
	return spec
}

// envInt reads an integer knob whose "off" is 0 and whose default is def,
// and spells the result the way cluster.Spec does: off is negative.
func envInt(name string, def int) int {
	if v := knob.Int(name, def, 1, map[string]int{"on": def, "off": 0, "0": 0}); v != 0 {
		return v
	}
	return -1
}

// envDuration is envInt for a duration knob.
func envDuration(name string, def time.Duration) time.Duration {
	if v := knob.Duration(name, def, map[string]time.Duration{"on": def, "off": 0, "0": 0}); v != 0 {
		return v
	}
	return -1
}

func runReplica(m types.Membership, self types.ProcessID, cfg tcpnet.Config, seed int64, ro replicaOpts) error {
	if !m.Contains(self) {
		return fmt.Errorf("replica id %v out of range [0, %d)", self, m.N)
	}
	spec := replicaSpec(m, seed, ro)
	var reg *obs.Registry
	var spans *tracing.SpanBuffer
	var tracer *tracing.Tracer
	if ro.debugAddr != "" {
		reg = obs.NewRegistry()
		obs.SetBuildInfo(reg, "protocol", spec.Protocol.String(), "binary", "minbft-kv")
		spec.Metrics = reg
		if rate := tracing.DefaultSampleRate(); rate > 0 {
			spans = tracing.NewSpanBuffer(4096)
			tracer = tracing.NewTracer(fmt.Sprintf("r%d", self), rate, spans)
		}
	}
	keys, err := cluster.ProvisionKeys(spec, m)
	if err != nil {
		return err
	}
	keys.AttachMetrics(reg)
	if ro.dataDir != "" {
		// Counter persistence before anything attests: the WAL is what
		// keeps the rehydrated trinket monotone across SIGKILL.
		counters, err := keys.Persist(self, ro.dataDir,
			obs.NewLogger(os.Stderr, slog.LevelInfo, "ctrstore", self))
		if err != nil {
			return err
		}
		defer counters.Close()
	}
	var netOpts []tcpnet.Option
	if ro.dialTimeout > 0 {
		netOpts = append(netOpts, tcpnet.WithDialTimeout(ro.dialTimeout))
	}
	if ro.writeTimeout > 0 {
		netOpts = append(netOpts, tcpnet.WithWriteTimeout(ro.writeTimeout))
	}
	if reg != nil {
		netOpts = append(netOpts, tcpnet.WithMetrics(reg))
	}
	tr, err := tcpnet.New(self, cfg, netOpts...)
	if err != nil {
		return err
	}
	rep, err := cluster.NewReplica(spec, m, self, tr, keys, kvstore.New(), tracer)
	if err != nil {
		_ = tr.Close()
		return err
	}
	fmt.Printf("replica %v serving on %s (n=%d, f=%d)\n", self, tr.Addr(), m.N, m.F)
	if reg != nil {
		opts := []obs.HandlerOption{
			obs.WithSpans(spans),
			obs.WithReadinessDetail(rep.ReadyReason),
			obs.WithStatus(rep),
		}
		handler := obs.Handler(reg, opts...)
		go func() {
			fmt.Printf("debug server on http://%s/metrics\n", ro.debugAddr)
			if err := http.ListenAndServe(ro.debugAddr, handler); err != nil {
				fmt.Fprintln(os.Stderr, "minbft-kv: debug server:", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("shutting down")
	return rep.Close()
}

func runClient(m types.Membership, self types.ProcessID, cfg tcpnet.Config, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: ... put KEY VALUE | get KEY | rget KEY | del KEY")
	}
	tr, err := tcpnet.New(self, cfg)
	if err != nil {
		return err
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	spec := cluster.Spec{Protocol: cluster.MinBFT, F: m.F}
	enc := spec.Encoders()
	if args[0] == "rget" {
		// Read fast path: answered by one leased reply from the leader, or by
		// f+1 matching fallback votes when no lease is live (smr/read.go).
		// Built instead of the ordering-path client: one receiver per
		// transport endpoint.
		pl, err := smr.NewPipeline(tr, m.All(), m.FPlusOne(), uint64(self),
			200*time.Millisecond, 1,
			smr.WithPipelineRequestEncoder(enc.Request),
			smr.WithPipelineReadEncoder(enc.Read),
			smr.WithPipelineReadBatchEncoder(enc.ReadBatch),
			smr.WithReadQuorum(spec.ReadQuorum(m)))
		if err != nil {
			return err
		}
		defer pl.Close()
		v, err := kvstore.NewPipeClient(pl).GetFast(ctx, args[1])
		if err != nil {
			return err
		}
		fmt.Println(string(v))
		return nil
	}

	base, err := smr.NewClient(tr, m.All(), m.FPlusOne(), uint64(self), 200*time.Millisecond,
		smr.WithRequestEncoder(enc.Request))
	if err != nil {
		return err
	}
	kv := kvstore.NewClient(base)

	switch args[0] {
	case "put":
		if len(args) != 3 {
			return fmt.Errorf("usage: put KEY VALUE")
		}
		if err := kv.Put(ctx, args[1], []byte(args[2])); err != nil {
			return err
		}
		fmt.Println("OK")
	case "get":
		v, err := kv.Get(ctx, args[1])
		if err != nil {
			return err
		}
		fmt.Println(string(v))
	case "del":
		if err := kv.Del(ctx, args[1]); err != nil {
			return err
		}
		fmt.Println("OK")
	default:
		return fmt.Errorf("unknown op %q", args[0])
	}
	return nil
}
