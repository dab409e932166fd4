// Package cluster holds the group-agnostic replica lifecycle shared by the
// in-process harness, the minbft-kv command, and the sharded multi-group
// deployments: protocol selection, membership sizing, deterministic key
// provisioning, replica option assembly, checkpoint/data-dir plumbing, and
// metrics/trace attachment.
//
// A "group" is one consensus instance — one MinBFT or PBFT replica set
// ordering one log. Before sharding, every deployment was exactly one group
// and this lifecycle lived twice: once in internal/harness (simnet,
// in-process benchmarks) and once in cmd/minbft-kv (tcpnet, one OS process
// per replica), drifting independently. Sharded deployments
// (internal/shard) run several groups side by side, each built through this
// package over whatever transport the caller provides.
package cluster

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"unidir/internal/minbft"
	"unidir/internal/obs"
	"unidir/internal/obs/tracing"
	"unidir/internal/pbft"
	"unidir/internal/sig"
	"unidir/internal/smr"
	"unidir/internal/transport"
	"unidir/internal/trusted/ctrstore"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

// Protocol selects the consensus protocol a group runs.
type Protocol int

const (
	// MinBFT needs n = 2f+1 replicas; equivocation is prevented by TrInc
	// USIG trusted counters (the paper's class of unidirectional trusted
	// hardware).
	MinBFT Protocol = iota
	// PBFT needs n = 3f+1 replicas and no trusted components.
	PBFT
)

func (p Protocol) String() string {
	switch p {
	case MinBFT:
		return "minbft"
	case PBFT:
		return "pbft"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Default key-provisioning seeds, kept distinct per protocol so a MinBFT
// and a PBFT group built side by side never share key material. These are
// the seeds the harness has always used; benchmarks stay comparable across
// the extraction.
const (
	defaultMinBFTSeed = 3
	defaultPBFTSeed   = 4
)

// Spec parameterizes one consensus group. The zero value plus an F is a
// usable MinBFT group with library defaults everywhere.
type Spec struct {
	Protocol Protocol
	F        int        // faults tolerated; n is derived per protocol
	Scheme   sig.Scheme // signature scheme for keys / trusted components

	// Timeout is the request (view-change) timeout. 0 keeps the protocol
	// default. PBFT has no configurable request timeout; it ignores this.
	Timeout time.Duration
	// The settings below are smr.EngineConfig's, under the same convention
	// (engineConfig is the translation): 0 keeps the default that
	// smr.EngineConfig documents, a negative value turns the feature off.
	// Nothing here is read from the environment.

	// Batch is the consensus batch cap (default 64); 1 disables batching.
	Batch int
	// Ckpt is the checkpoint interval in executed batches (default 128).
	Ckpt int
	// BatchDeadline is not read: the leader cuts a partial batch only into
	// an idle pipeline, so there is no deadline to set. The field stays
	// until the benchmark, which still sets it, stops naming it.
	BatchDeadline time.Duration
	// Admission is the replicas' admission bounds; nil keeps the default
	// (4096 pending, no per-client rate limit).
	Admission *smr.AdmissionConfig
	// PaceDepth is the proposal-pacing threshold in queued frames (default
	// 4096).
	PaceDepth int
	// LeaseTerm is the lease term of the read fast path (default 250ms).
	LeaseTerm time.Duration

	// Metrics, when set, attaches replica, signature-cache, and transport
	// metric families to this registry. Sharded deployments hand each group
	// a labeled view (obs.Registry.Labeled) of one shared registry.
	Metrics *obs.Registry
	// DataDir is the replica persistence directory (trusted-counter WAL +
	// stable checkpoint). Empty means volatile. MinBFT only.
	DataDir string
	// Seed derives the group's deterministic demo key material; 0 uses the
	// library default (distinct per protocol). Groups of a sharded
	// deployment must use distinct seeds or share a universe deliberately.
	Seed int64
}

// N returns the replica count the protocol needs for F faults.
func (s Spec) N() int {
	if s.Protocol == PBFT {
		return 3*s.F + 1
	}
	return 2*s.F + 1
}

// Membership returns the group's replica membership.
func (s Spec) Membership() (types.Membership, error) {
	return types.NewMembership(s.N(), s.F)
}

// ReadQuorum is the fallback-read vote quorum a client of this group needs:
// one more than the possible equivocators among the repliers — f+1 for
// MinBFT, 2f+1 for PBFT (see DESIGN.md §8).
func (s Spec) ReadQuorum(m types.Membership) int {
	if s.Protocol == PBFT {
		return m.Quorum()
	}
	return m.FPlusOne()
}

// Encoders is the protocol's client-side envelope set: how a group's
// clients wrap write requests, fast-path reads, and coalesced read batches.
type Encoders struct {
	Request   func([]smr.Request) []byte
	Read      func(smr.ReadRequest) []byte
	ReadBatch func([][]byte) []byte
}

// Encoders returns the protocol's envelope encoders.
func (s Spec) Encoders() Encoders {
	if s.Protocol == PBFT {
		return Encoders{
			Request:   pbft.EncodeRequestEnvelope,
			Read:      pbft.EncodeReadRequestEnvelope,
			ReadBatch: pbft.EncodeReadBatchEnvelope,
		}
	}
	return Encoders{
		Request:   minbft.EncodeRequestEnvelope,
		Read:      minbft.EncodeReadRequestEnvelope,
		ReadBatch: minbft.EncodeReadBatchEnvelope,
	}
}

// Keys is a group's provisioned key material: a TrInc universe for MinBFT,
// per-replica keyrings for PBFT. Every process of a group derives the same
// material from the same Spec (demo provisioning — a production deployment
// would provision real hardware or per-device keys).
type Keys struct {
	TrInc *trinc.Universe // MinBFT; nil for PBFT
	Rings []*sig.Keyring  // PBFT; nil for MinBFT
}

// ProvisionKeys derives the group's key material for membership m from
// spec.Seed. m is usually s.Membership(), but commands that let operators
// run with more than the canonical replica count pass their own.
func ProvisionKeys(s Spec, m types.Membership) (*Keys, error) {
	if s.Protocol == PBFT {
		seed := s.Seed
		if seed == 0 {
			seed = defaultPBFTSeed
		}
		rings, err := sig.NewKeyrings(m, s.Scheme, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		return &Keys{Rings: rings}, nil
	}
	seed := s.Seed
	if seed == 0 {
		seed = defaultMinBFTSeed
	}
	tu, err := trinc.NewUniverse(m, s.Scheme, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return &Keys{TrInc: tu}, nil
}

// AttachMetrics publishes the key material's verification-cache counters
// (the signature fast path) to reg. No-op for PBFT keyrings and nil reg.
func (k *Keys) AttachMetrics(reg *obs.Registry) {
	if k.TrInc != nil && reg != nil {
		k.TrInc.Verifier.FastPath().AttachMetrics(reg)
	}
}

// Persist opens the trusted-counter WAL under dataDir and binds replica
// self's device to it, so the counter rehydrates monotonically across a
// crash-restart. The returned closer owns the WAL and must outlive the
// replica. No-op (nil closer) for PBFT.
func (k *Keys) Persist(self types.ProcessID, dataDir string, logger *slog.Logger) (io.Closer, error) {
	if k.TrInc == nil {
		return nil, nil
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	var opts []ctrstore.Option
	if logger != nil {
		opts = append(opts, ctrstore.WithLogger(logger))
	}
	counters, err := ctrstore.Open(filepath.Join(dataDir, "usig.wal"), opts...)
	if err != nil {
		return nil, err
	}
	if err := k.TrInc.Devices[self].Persist(counters); err != nil {
		_ = counters.Close()
		return nil, err
	}
	return counters, nil
}

// Replica is a running group member, protocol-agnostic: both protocols
// answer readiness probes and status requests through the same replica loop
// (smr.Loop).
type Replica interface {
	Close() error
	// ReadyReason reports whether the replica is serving normally and, if
	// not, why (for /readyz bodies). Safe from any goroutine.
	ReadyReason() (bool, string)
	obs.StatusProvider
}

// StatusProvider returns r's status provider (every Replica is one).
func StatusProvider(r Replica) obs.StatusProvider { return r }

// engineConfig is the one translation from a Spec to the settings both
// protocols share. Values pass through verbatim: Spec spells "default" and
// "off" the way smr.EngineConfig does.
func (s Spec) engineConfig(tracer *tracing.Tracer) smr.EngineConfig {
	return smr.EngineConfig{
		BatchSize:          s.Batch,
		PaceDepth:          s.PaceDepth,
		Admission:          s.Admission,
		LeaseTerm:          s.LeaseTerm,
		CheckpointInterval: s.Ckpt,
		Metrics:            s.Metrics,
		Tracer:             tracer,
	}
}

// NewReplica builds group member self over tr with the given state machine
// and key material. The caller owns tr; the replica owns its own shutdown.
func NewReplica(s Spec, m types.Membership, self types.ProcessID, tr transport.Transport,
	keys *Keys, sm smr.StateMachine, tracer *tracing.Tracer) (Replica, error) {
	cfg := s.engineConfig(tracer)
	if s.Protocol == PBFT {
		return pbft.New(m, tr, keys.Rings[self], sm, pbft.WithEngineConfig(cfg))
	}
	opts := []minbft.Option{minbft.WithEngineConfig(cfg)}
	if s.Timeout > 0 {
		opts = append(opts, minbft.WithRequestTimeout(s.Timeout))
	}
	if s.DataDir != "" {
		opts = append(opts, minbft.WithDataDir(s.DataDir))
	}
	return minbft.New(m, tr, keys.TrInc.Devices[self], keys.TrInc.Verifier, sm, opts...)
}

// Group is one running consensus group: its replicas, membership, and key
// material. Clients are wired separately (they live at transport endpoints
// the group does not own).
type Group struct {
	Spec     Spec
	M        types.Membership
	Keys     *Keys
	Replicas []Replica
}

// NewGroup provisions keys and builds every replica of the group over
// membership m, taking each replica's transport from endpoint. tracers,
// when non-nil, must hold one tracer per replica. On error, replicas
// already built are closed; the caller keeps ownership of the transports
// either way.
func NewGroup(s Spec, m types.Membership, endpoint func(types.ProcessID) transport.Transport,
	newSM func() smr.StateMachine, tracers []*tracing.Tracer) (*Group, error) {
	keys, err := ProvisionKeys(s, m)
	if err != nil {
		return nil, err
	}
	keys.AttachMetrics(s.Metrics)
	g := &Group{Spec: s, M: m, Keys: keys, Replicas: make([]Replica, m.N)}
	for i := 0; i < m.N; i++ {
		var tracer *tracing.Tracer
		if tracers != nil {
			tracer = tracers[i]
		}
		g.Replicas[i], err = NewReplica(s, m, types.ProcessID(i), endpoint(types.ProcessID(i)),
			keys, newSM(), tracer)
		if err != nil {
			for _, r := range g.Replicas[:i] {
				_ = r.Close()
			}
			return nil, fmt.Errorf("cluster: replica %d: %w", i, err)
		}
	}
	return g, nil
}

// Close shuts every replica down.
func (g *Group) Close() {
	for _, r := range g.Replicas {
		_ = r.Close()
	}
}
