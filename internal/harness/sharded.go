package harness

// Sharded SMR deployments: N independent consensus groups, each on its own
// simulated network, multiplexed behind a shard.Client (see internal/shard).

import (
	"fmt"

	"unidir/internal/cluster"
	"unidir/internal/kvstore"
	"unidir/internal/shard"
	"unidir/internal/simnet"
	"unidir/internal/smr"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// ShardedConfig parameterizes a sharded SMR deployment: SMR configures each
// group exactly like a single-group deployment (same knobs, same defaults),
// applied uniformly to all of them.
type ShardedConfig struct {
	Shards int       // consensus groups (>= 1)
	SMR    SMRConfig // per-group configuration (F, Scheme, Batch, Ckpt, ...)
}

// ShardedCluster is a running sharded deployment. Each group is a full
// replica set on its own simnet with one pipelined client; Client routes
// keys across them. Nets expose each group's network for fault injection
// (Block a group's links to wedge it, SetLinkDelay, ...).
type ShardedCluster struct {
	Client *shard.Client
	Router *shard.Router
	Groups []*cluster.Group
	Nets   []*simnet.Network
	Stop   func()
}

// BuildSharded builds cfg.Shards independent consensus groups of the given
// protocol and wires a shard.Client over them. Per-group metrics land in
// cfg.SMR.Metrics under a shard="<g>" label, so per-group series coexist in
// one registry and Snapshot sums (CounterSum etc.) aggregate across groups.
func BuildSharded(p cluster.Protocol, cfg ShardedConfig) (*ShardedCluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("harness: sharded deployment needs >= 1 shard, got %d", cfg.Shards)
	}
	if cfg.SMR.TraceRate > 0 {
		return nil, fmt.Errorf("harness: distributed tracing is not supported in sharded deployments")
	}
	view, err := shard.NewUniformView(1, cfg.Shards)
	if err != nil {
		return nil, err
	}
	router := shard.NewRouter(view)

	sc := &ShardedCluster{Router: router}
	stop := func() {
		for _, g := range sc.Groups {
			g.Close()
		}
		for _, net := range sc.Nets {
			net.Close()
		}
	}
	pipes := make([]*kvstore.PipeClient, 0, cfg.Shards)
	pls := make([]*smr.Pipeline, 0, cfg.Shards)
	closePipes := func() {
		for _, pl := range pls {
			_ = pl.Close()
		}
	}
	fail := func(err error) (*ShardedCluster, error) {
		closePipes()
		stop()
		return nil, err
	}

	for g := 0; g < cfg.Shards; g++ {
		spec := smrSpec(p, cfg.SMR)
		spec.Metrics = cfg.SMR.Metrics.Labeled("shard", g)
		m, err := spec.Membership()
		if err != nil {
			return fail(err)
		}
		// One extra endpoint per group: the pipelined client at id n.
		netM, err := types.NewMembership(m.N+1, cfg.SMR.F)
		if err != nil {
			return fail(err)
		}
		net, err := simnet.New(netM)
		if err != nil {
			return fail(err)
		}
		sc.Nets = append(sc.Nets, net)
		group, err := cluster.NewGroup(spec, m,
			func(id types.ProcessID) transport.Transport { return net.Endpoint(id) },
			func() smr.StateMachine { return kvstore.New() }, nil)
		if err != nil {
			return fail(err)
		}
		sc.Groups = append(sc.Groups, group)

		pl, err := newPipeline(net, types.ProcessID(m.N), m, spec, cfg.SMR, nil)
		if err != nil {
			return fail(err)
		}
		pls = append(pls, pl)
		pipes = append(pipes, kvstore.NewPipeClient(pl))
	}

	client, err := shard.NewClient(router, pipes)
	if err != nil {
		return fail(err)
	}
	sc.Client = client
	sc.Stop = func() {
		closePipes()
		stop()
	}
	return sc, nil
}
