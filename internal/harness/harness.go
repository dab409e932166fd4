// Package harness provides ready-made cluster builders for the root
// benchmarks, TestFigure1 and cmd/unidir-doctor: full SRB node sets over each
// substrate, and SMR deployments (MinBFT, PBFT) over the simulated network
// with connected clients.
package harness

import (
	"fmt"
	"math/rand"
	"time"

	"unidir/internal/cluster"
	"unidir/internal/kvstore"
	"unidir/internal/obs"
	"unidir/internal/obs/tracing"
	"unidir/internal/rounds"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/smr"
	"unidir/internal/srb"
	"unidir/internal/srb/a2msrb"
	"unidir/internal/srb/bracha"
	"unidir/internal/srb/trincsrb"
	"unidir/internal/srb/uniround"
	"unidir/internal/transport"
	"unidir/internal/trusted/a2m"
	"unidir/internal/trusted/swmr"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

// SRBCluster is a running SRB node set.
type SRBCluster struct {
	Nodes []srb.Node
	Stop  func()
}

// BuildUniroundCluster builds a uniround SRB node set over SWMR stores,
// signing with the given scheme (Ed25519 for realistic crypto cost, HMAC
// for a cheap simulation).
func BuildUniroundCluster(m types.Membership, scheme sig.Scheme) (*SRBCluster, error) {
	rings, err := sig.NewKeyrings(m, scheme, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	stores := make([]*swmr.Store, m.N)
	for s := range stores {
		if stores[s], err = swmr.NewStore(m); err != nil {
			return nil, err
		}
	}
	nodes := make([]srb.Node, m.N)
	for i := 0; i < m.N; i++ {
		self := types.ProcessID(i)
		nodes[i], err = uniround.New(m, rings[i], func(sender types.ProcessID) (rounds.System, error) {
			return rounds.NewSWMR(swmr.NewLocal(stores[sender], self), m)
		})
		if err != nil {
			return nil, err
		}
	}
	return &SRBCluster{Nodes: nodes, Stop: func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}}, nil
}

// BuildTrincCluster builds a TrInc SRB node set over a simulated network,
// with trinkets signing under the given scheme.
func BuildTrincCluster(m types.Membership, scheme sig.Scheme) (*SRBCluster, error) {
	tu, err := trinc.NewUniverse(m, scheme, rand.New(rand.NewSource(2)))
	if err != nil {
		return nil, err
	}
	return buildOverSimnet(m, func(tr transport.Transport) (srb.Node, error) {
		return trincsrb.New(m, tr, tu.Devices[tr.Self()], tu.Verifier)
	})
}

// BuildA2MCluster builds an SRB node set over A2M logs (native devices,
// agreed log ID 1) on a simulated network, with devices signing under the
// given scheme.
func BuildA2MCluster(m types.Membership, scheme sig.Scheme) (*SRBCluster, error) {
	au, err := a2m.NewUniverse(m, scheme, rand.New(rand.NewSource(5)), nil)
	if err != nil {
		return nil, err
	}
	return buildOverSimnet(m, func(tr transport.Transport) (srb.Node, error) {
		return a2msrb.New(m, tr, au.Devices[tr.Self()].NewLog(), au.Verifier)
	})
}

// BuildBrachaCluster builds a Bracha SRB node set over a simulated network.
// Bracha signs nothing, so the scheme is ignored; it is taken so that every
// SRB builder has one signature.
func BuildBrachaCluster(m types.Membership, _ sig.Scheme) (*SRBCluster, error) {
	return buildOverSimnet(m, func(tr transport.Transport) (srb.Node, error) {
		return bracha.New(m, tr)
	})
}

// buildOverSimnet builds one node per member on a fresh simulated network;
// Stop closes the nodes, then the network.
func buildOverSimnet(m types.Membership, node func(transport.Transport) (srb.Node, error)) (*SRBCluster, error) {
	net, err := simnet.New(m)
	if err != nil {
		return nil, err
	}
	var nodes []srb.Node
	stop := func() {
		for _, n := range nodes {
			_ = n.Close()
		}
		net.Close()
	}
	for _, id := range m.All() {
		n, err := node(net.Endpoint(id))
		if err != nil {
			stop()
			return nil, err
		}
		nodes = append(nodes, n)
	}
	return &SRBCluster{Nodes: nodes, Stop: stop}, nil
}

// SMRCluster is a running SMR deployment with two connected clients: KV is
// the closed-loop client (one request outstanding), Pipe the pipelined one
// (up to the configured window outstanding — the load shape that gives a
// batching primary something to batch). Group is the replica set itself,
// for callers that scrape its replicas' status (cluster.StatusProvider).
type SMRCluster struct {
	KV      *kvstore.Client
	Pipe    *kvstore.PipeClient
	Group   *cluster.Group
	Metrics *obs.Registry // non-nil iff SMRConfig.Metrics was set
	Stop    func()

	spanBufs []*tracing.SpanBuffer // per-node buffers; nil without TraceRate
}

// SMRConfig parameterizes an SMR deployment.
type SMRConfig struct {
	F         int           // faults tolerated (n derived per protocol)
	Scheme    sig.Scheme    // signature scheme for the trusted components
	Batch     int           // consensus batch cap; 0 = smr.DefaultBatchSize, 1 = unbatched
	Window    int           // pipelined client's in-flight window; 0 = 32
	Ckpt      int           // checkpoint interval; 0 = smr.DefaultCheckpointInterval, < 0 disables
	Metrics   *obs.Registry // optional: replicas, sig cache, and pipeline publish here
	TraceRate int           // distributed tracing: 1-in-TraceRate requests sampled; 0 disables

	// SubmitTimeout bounds Pipeline.Submit on an exhausted window; past it
	// Submit sheds with smr.ErrOverloaded. 0 blocks indefinitely (legacy).
	SubmitTimeout time.Duration
	// AdaptiveWindow > 0 turns on AIMD window adaptation in the pipelined
	// client, shrinking toward this minimum under overload.
	AdaptiveWindow int
}

const defaultPipeWindow = 32

// traceBuf is each node's span buffer capacity.
const traceBuf = 8192

// smrTracers provisions one tracer per replica plus the pipeline client's,
// which is where the head-sampling decision lives (replica tracers use rate
// 1: they record whenever a propagated context says sampled). Returns nils
// when tracing is off.
func smrTracers(cfg SMRConfig, n int) (replicas []*tracing.Tracer, pipe *tracing.Tracer, bufs []*tracing.SpanBuffer) {
	if cfg.TraceRate <= 0 {
		return nil, nil, nil
	}
	replicas = make([]*tracing.Tracer, n)
	for i := range replicas {
		buf := tracing.NewSpanBuffer(traceBuf)
		replicas[i] = tracing.NewTracer(fmt.Sprintf("r%d", i), 1, buf)
		bufs = append(bufs, buf)
	}
	buf := tracing.NewSpanBuffer(traceBuf)
	pipe = tracing.NewTracer("client", cfg.TraceRate, buf)
	bufs = append(bufs, buf)
	return replicas, pipe, bufs
}

// CollectSpans merges every node's span buffer and aligns per-node clocks
// over the causal cross-node edges. Returns nil when tracing was off.
func (c *SMRCluster) CollectSpans() []tracing.Span {
	if len(c.spanBufs) == 0 {
		return nil
	}
	return tracing.AlignClocks(tracing.Merge(c.spanBufs...))
}

// Breakdowns collects spans and reduces them to per-request phase latency
// attributions (see tracing.Breakdown).
func (c *SMRCluster) Breakdowns() []tracing.RequestBreakdown {
	return tracing.Breakdown(c.CollectSpans())
}

// BuildMinBFTCfg builds a MinBFT deployment from an SMRConfig.
func BuildMinBFTCfg(cfg SMRConfig) (*SMRCluster, error) {
	return buildSMR(cluster.MinBFT, cfg)
}

// smrSpec translates the harness-level SMRConfig into the group-agnostic
// cluster.Spec shared with cmd/minbft-kv.
func smrSpec(p cluster.Protocol, cfg SMRConfig) cluster.Spec {
	spec := cluster.Spec{
		Protocol: p,
		F:        cfg.F,
		Scheme:   cfg.Scheme,
		Batch:    cfg.Batch,
		Ckpt:     cfg.Ckpt,
		Metrics:  cfg.Metrics,
	}
	if p == cluster.MinBFT {
		// The harness has always run MinBFT with a long view-change fuse so
		// in-process benchmark pauses don't trigger spurious view changes.
		spec.Timeout = 5 * time.Second
	}
	return spec
}

// buildSMR builds one consensus group over a fresh simnet with the
// configured clients attached.
func buildSMR(p cluster.Protocol, cfg SMRConfig) (*SMRCluster, error) {
	spec := smrSpec(p, cfg)
	m, err := spec.Membership()
	if err != nil {
		return nil, err
	}
	n := m.N
	// Extra endpoints: the closed-loop client and the pipeline.
	netM, err := types.NewMembership(n+2, cfg.F)
	if err != nil {
		return nil, err
	}
	net, err := simnet.New(netM)
	if err != nil {
		return nil, err
	}
	tracers, pipeTracer, spanBufs := smrTracers(cfg, n)
	group, err := cluster.NewGroup(spec, m,
		func(id types.ProcessID) transport.Transport { return net.Endpoint(id) },
		func() smr.StateMachine { return kvstore.New() }, tracers)
	if err != nil {
		net.Close()
		return nil, err
	}
	stopReplicas := func() {
		group.Close()
		net.Close()
	}
	kv, pipe, closeClients, err := buildClients(net, group.M, spec, cfg, pipeTracer)
	if err != nil {
		stopReplicas()
		return nil, err
	}
	return &SMRCluster{KV: kv, Pipe: pipe, Group: group, Metrics: cfg.Metrics, spanBufs: spanBufs, Stop: func() {
		closeClients()
		stopReplicas()
	}}, nil
}

// BuildPBFTCfg builds a PBFT deployment from an SMRConfig.
func BuildPBFTCfg(cfg SMRConfig) (*SMRCluster, error) {
	return buildSMR(cluster.PBFT, cfg)
}

// buildClients connects the closed-loop client (endpoint n) and the
// pipelined client (endpoint n+1) to a running replica set.
func buildClients(net *simnet.Network, m types.Membership, spec cluster.Spec, cfg SMRConfig,
	tracer *tracing.Tracer) (*kvstore.Client, *kvstore.PipeClient, func(), error) {
	closedID := types.ProcessID(m.N)
	base, err := smr.NewClient(net.Endpoint(closedID), m.All(), m.FPlusOne(), uint64(closedID),
		time.Second, smr.WithRequestEncoder(spec.Encoders().Request))
	if err != nil {
		return nil, nil, nil, err
	}
	pl, err := newPipeline(net, types.ProcessID(m.N+1), m, spec, cfg, tracer)
	if err != nil {
		_ = base.Close()
		return nil, nil, nil, err
	}
	closeClients := func() {
		_ = base.Close()
		_ = pl.Close()
	}
	return kvstore.NewClient(base), kvstore.NewPipeClient(pl), closeClients, nil
}

// newPipeline connects a pipelined client at endpoint id to the replica set
// m, publishing to spec.Metrics and tracing through tracer when either is
// set. Its fallback reads need spec.ReadQuorum(m) matching votes: f+1 for
// MinBFT, 2f+1 for PBFT (one more than the possible equivocators among the
// repliers; see DESIGN.md §8).
func newPipeline(net *simnet.Network, id types.ProcessID, m types.Membership, spec cluster.Spec, cfg SMRConfig,
	tracer *tracing.Tracer) (*smr.Pipeline, error) {
	window := cfg.Window
	if window <= 0 {
		window = defaultPipeWindow
	}
	enc := spec.Encoders()
	opts := []smr.PipelineOption{
		smr.WithPipelineRequestEncoder(enc.Request),
		smr.WithPipelineReadEncoder(enc.Read),
		smr.WithPipelineReadBatchEncoder(enc.ReadBatch),
		smr.WithReadQuorum(spec.ReadQuorum(m)),
	}
	if spec.Metrics != nil {
		opts = append(opts, smr.WithPipelineMetrics(spec.Metrics))
	}
	if tracer != nil {
		opts = append(opts, smr.WithPipelineTracer(tracer))
	}
	if cfg.SubmitTimeout > 0 {
		opts = append(opts, smr.WithSubmitTimeout(cfg.SubmitTimeout))
	}
	if cfg.AdaptiveWindow > 0 {
		opts = append(opts, smr.WithAdaptiveWindow(cfg.AdaptiveWindow))
	}
	return smr.NewPipeline(net.Endpoint(id), m.All(), m.FPlusOne(), uint64(id),
		time.Second, window, opts...)
}

func MustMembership(n, f int) types.Membership {
	m, err := types.NewMembership(n, f)
	if err != nil {
		panic(fmt.Sprintf("membership(%d,%d): %v", n, f, err))
	}
	return m
}
