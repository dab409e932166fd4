package main

import (
	"fmt"
	"io"
	"path/filepath"

	"unidir/internal/cluster"
	"unidir/internal/kvstore"
	"unidir/internal/obs"
	"unidir/internal/obs/tracing"
	"unidir/internal/sig"
	"unidir/internal/smr"
	"unidir/internal/tcpnet"
	"unidir/internal/types"
)

// instruments is what a traced run attaches and an untraced run leaves
// nil: the metrics registry every layer publishes into, and one span
// buffer per node.
type instruments struct {
	reg    *obs.Registry
	spans  []*tracing.SpanBuffer // replicas 0..n-1, then the client
	client *tracing.Tracer
}

// spanBufCap holds a traced run's spans without wrapping: ~2k sampled
// requests/s at 1-in-16 leave ~6k spans/s on a replica.
const spanBufCap = 1 << 17

func newInstruments(n int) *instruments {
	in := &instruments{reg: obs.NewRegistry()}
	for i := 0; i <= n; i++ {
		in.spans = append(in.spans, tracing.NewSpanBuffer(spanBufCap))
	}
	// The pipeline client is the one head-sampling site; replica tracers
	// record whenever a propagated context says sampled (rate 1).
	in.client = tracing.NewTracer("client", pinTraceRate, in.spans[n])
	return in
}

// node is one replica's process-worth of state. A restart rebuilds all of
// it from the data dir, like a fresh OS process would.
type node struct {
	net *tcpnet.Net
	wal io.Closer // trusted-counter WAL; nil for PBFT
	rep cluster.Replica
}

// benchCluster is the system under test: n replicas and one pipelined
// client, each on its own loopback tcpnet endpoint, all in this process.
type benchCluster struct {
	w      workload
	scheme sig.Scheme
	m      types.Membership
	addrs  tcpnet.Config // replicas 0..n-1, client n
	dir    string
	in     *instruments
	nodes  []*node

	clientNet *tcpnet.Net
	pipe      *smr.Pipeline
	kv        *kvstore.PipeClient
}

func newCluster(w workload, scheme sig.Scheme, dir string, in *instruments) (_ *benchCluster, err error) {
	spec := w.spec(scheme, "")
	m, err := spec.Membership()
	if err != nil {
		return nil, err
	}
	c := &benchCluster{w: w, scheme: scheme, m: m, dir: dir, in: in,
		addrs: make(tcpnet.Config, m.N+1), nodes: make([]*node, m.N)}
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	// Bind every endpoint before any replica runs: peers dial the
	// addresses the kernel picked.
	for i := 0; i <= m.N; i++ {
		c.addrs[types.ProcessID(i)] = "127.0.0.1:0"
	}
	for i := 0; i < m.N; i++ {
		c.nodes[i] = &node{}
		if c.nodes[i].net, err = c.listen(i); err != nil {
			return nil, err
		}
	}
	if c.clientNet, err = c.listen(m.N); err != nil {
		return nil, err
	}
	for i := 0; i < m.N; i++ {
		if err = c.startReplica(i); err != nil {
			return nil, err
		}
	}
	enc := spec.Encoders()
	opts := []smr.PipelineOption{
		smr.WithPipelineRequestEncoder(enc.Request),
		smr.WithPipelineReadEncoder(enc.Read),
		smr.WithPipelineReadBatchEncoder(enc.ReadBatch),
		smr.WithReadQuorum(spec.ReadQuorum(m)),
	}
	if w.readWindow > 0 {
		opts = append(opts, smr.WithReadWindow(w.readWindow))
	}
	if in != nil {
		opts = append(opts, smr.WithPipelineMetrics(in.reg), smr.WithPipelineTracer(in.client))
	}
	c.pipe, err = smr.NewPipeline(c.clientNet, m.All(), m.FPlusOne(), uint64(m.N),
		pinClientRetry, w.writeWindow, opts...)
	if err != nil {
		return nil, err
	}
	c.kv = kvstore.NewPipeClient(c.pipe)
	return c, nil
}

func (c *benchCluster) listen(i int) (*tcpnet.Net, error) {
	var opts []tcpnet.Option
	if c.in != nil {
		opts = append(opts, tcpnet.WithMetrics(c.in.reg))
	}
	nt, err := tcpnet.New(types.ProcessID(i), c.addrs, opts...)
	if err != nil {
		return nil, err
	}
	// Peers read this map from their sender goroutines once traffic flows,
	// so it is written only while the cluster is being built: a restart
	// listens on the address already stored.
	if c.addrs[types.ProcessID(i)] != nt.Addr() {
		c.addrs[types.ProcessID(i)] = nt.Addr()
	}
	return nt, nil
}

func (c *benchCluster) dataDir(i int) string {
	return filepath.Join(c.dir, fmt.Sprintf("r%d", i))
}

// startReplica builds replica i over its already-listening endpoint. Keys
// are provisioned per replica (same seed, so same material) because
// separate OS processes would not share a verified-signature cache.
func (c *benchCluster) startReplica(i int) error {
	nd, self := c.nodes[i], types.ProcessID(i)
	spec := c.w.spec(c.scheme, c.dataDir(i))
	var tracer *tracing.Tracer
	if c.in != nil {
		spec.Metrics = c.in.reg
		tracer = tracing.NewTracer(fmt.Sprintf("r%d", i), 1, c.in.spans[i])
	}
	keys, err := cluster.ProvisionKeys(spec, c.m)
	if err != nil {
		return err
	}
	keys.AttachMetrics(spec.Metrics)
	if spec.DataDir != "" {
		if nd.wal, err = keys.Persist(self, spec.DataDir, nil); err != nil {
			return err
		}
	}
	nd.rep, err = cluster.NewReplica(spec, c.m, self, nd.net, keys, kvstore.New(), tracer)
	return err
}

// kill is the in-process stand-in for SIGKILL of replica i: its endpoint,
// the replica and its WAL handle go away with nothing flushed on the way
// down; the data dir keeps whatever the write-ahead paths already wrote.
func (c *benchCluster) kill(i int) {
	nd := c.nodes[i]
	if nd == nil {
		return
	}
	if nd.net != nil {
		_ = nd.net.Close()
	}
	if nd.rep != nil {
		_ = nd.rep.Close()
	}
	if nd.wal != nil {
		_ = nd.wal.Close()
	}
	*nd = node{}
}

// restart brings replica i back on its old address from its data dir.
func (c *benchCluster) restart(i int) (err error) {
	if c.nodes[i].net, err = c.listen(i); err != nil {
		return err
	}
	return c.startReplica(i)
}

// providers returns the live replicas' status providers.
func (c *benchCluster) providers() []obs.StatusProvider {
	var out []obs.StatusProvider
	for _, nd := range c.nodes {
		if nd != nil && nd.rep != nil {
			if sp := cluster.StatusProvider(nd.rep); sp != nil {
				out = append(out, sp)
			}
		}
	}
	return out
}

// Close stops the client, then every replica. It waits for their
// goroutines, so a closed cluster leaves none behind.
func (c *benchCluster) Close() {
	if c.pipe != nil {
		_ = c.pipe.Close()
	}
	if c.clientNet != nil {
		_ = c.clientNet.Close()
	}
	for i := range c.nodes {
		c.kill(i)
	}
}
