// Package mspastry is a Go implementation of MSPastry — the dependable
// structured peer-to-peer overlay of Castro, Costa and Rowstron,
// "Performance and dependability of structured peer-to-peer overlays"
// (DSN 2004) — together with the full evaluation apparatus of the paper:
// a deterministic discrete-event network simulator, the GATech/Mercator/
// CorpNet topology models, churn-trace generators matching the Gnutella,
// OverNet and Microsoft measurement studies, an experiment harness with
// ground-truth delivery checking, a real-UDP transport running the same
// protocol code, the Squirrel web cache and a replicated key-value store.
//
// # Quick start
//
// Build an overlay in the simulator:
//
//	sim := mspastry.NewSimulator(1)
//	topo := mspastry.NewGATechTopology(mspastry.DefaultGATechConfig(), sim.Rand())
//	net := mspastry.NewSimNetwork(sim, topo, 0)
//	overlay := net.NewCluster(64, mspastry.DefaultConfig(), 2*time.Second, nil)
//
// or run a real node over UDP:
//
//	tr, _ := mspastry.ListenUDP("0.0.0.0:7001", 1)
//	node, _ := tr.CreateNode(mspastry.ID{}, mspastry.DefaultConfig(), nil) // ID drawn from the seed
//
// See examples/ for complete programs, and DESIGN.md / EXPERIMENTS.md for
// the paper-reproduction map.
package mspastry

import (
	"math/rand"
	"time"

	"mspastry/internal/dht"
	"mspastry/internal/eventsim"
	"mspastry/internal/harness"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/squirrel"
	"mspastry/internal/stats"
	"mspastry/internal/store"
	"mspastry/internal/topology"
	"mspastry/internal/trace"
	"mspastry/internal/transport"
)

// Core protocol types.
type (
	// ID is a 128-bit ring identifier.
	ID = id.ID
	// Node is one MSPastry overlay node.
	Node = pastry.Node
	// NodeRef identifies a node by ring id and transport address.
	NodeRef = pastry.NodeRef
	// Config holds the protocol parameters (paper defaults via DefaultConfig).
	Config = pastry.Config
	// Env abstracts clock, timers, randomness and transport.
	Env = pastry.Env
	// Observer receives protocol events for instrumentation.
	Observer = pastry.Observer
	// DropReason explains why the overlay dropped a lookup.
	DropReason = pastry.DropReason
	// App is the application layer interface (Squirrel, the DHT, yours).
	App = pastry.App
	// Lookup is an application lookup message.
	Lookup = pastry.Lookup
	// Message is any overlay protocol message.
	Message = pastry.Message
	// LeafSet is a node's ring neighbourhood.
	LeafSet = pastry.LeafSet
	// RoutingTable is a node's prefix-routing state.
	RoutingTable = pastry.RoutingTable
)

// Simulation types.
type (
	// Simulator is the deterministic discrete-event engine.
	Simulator = eventsim.Simulator
	// Topology is a generated router-level network.
	Topology = topology.Network
	// SimNetwork binds nodes to the simulator and a topology.
	SimNetwork = netmodel.Network
	// Endpoint is a node's attachment point in the simulated network.
	Endpoint = netmodel.Endpoint
	// SimCluster is the static overlay SimNetwork.NewCluster builds: n
	// endpoints, one node each, the first bootstrapped and the rest joined
	// through it.
	SimCluster = netmodel.Cluster
	// Trace is a churn schedule.
	Trace = trace.Trace
	// TraceConfig parameterises the churn generator.
	TraceConfig = trace.Config
	// ExperimentConfig describes one harness experiment.
	ExperimentConfig = harness.Config
	// ExperimentResult carries an experiment's metrics.
	ExperimentResult = harness.Result
	// Totals summarises a run.
	Totals = stats.Totals
	// WindowStat is one metric window.
	WindowStat = stats.WindowStat
)

// Application and deployment types.
type (
	// UDPTransport hosts a node on a real UDP socket.
	UDPTransport = transport.UDP
	// SquirrelProxy is a decentralized web-cache instance.
	SquirrelProxy = squirrel.Proxy
	// SquirrelOrigin abstracts the origin web server.
	SquirrelOrigin = squirrel.Origin
	// SquirrelOriginFunc adapts a function to SquirrelOrigin.
	SquirrelOriginFunc = squirrel.OriginFunc
	// SquirrelOutcome classifies how a request was satisfied.
	SquirrelOutcome = squirrel.Outcome
	// DHTStore is a replicated key-value store instance.
	DHTStore = dht.Store
	// DHTConfig sets the sweep interval, the storage backend and the read cache.
	DHTConfig = dht.Config
	// StoreBackend is the object storage behind a DHT store: versioned
	// objects with tombstones, in memory or on disk.
	StoreBackend = store.Backend
	// StoreObject is one versioned object held by a backend.
	StoreObject = store.Object
	// StoreStats reports a backend's object counts and disk usage.
	StoreStats = store.Stats
	// DiskStoreOptions tunes how often the durable backend fsyncs its WAL.
	DiskStoreOptions = store.DiskOptions
	// GATechConfig parameterises the transit-stub topology.
	GATechConfig = topology.GATechConfig
	// MercatorConfig parameterises the AS-structured topology.
	MercatorConfig = topology.MercatorConfig
	// CorpNetConfig parameterises the corporate topology.
	CorpNetConfig = topology.CorpNetConfig
)

// NewNode creates an overlay node. See pastry.NewNode.
func NewNode(self NodeRef, cfg Config, env Env, obs Observer) (*Node, error) {
	return pastry.NewNode(self, cfg, env, obs)
}

// DefaultConfig returns the paper's base protocol configuration.
func DefaultConfig() Config { return pastry.DefaultConfig() }

// RandomID draws a uniform 128-bit identifier.
func RandomID(rng *rand.Rand) ID { return id.Random(rng) }

// KeyFromString hashes an application key (for example a URL) to an ID.
func KeyFromString(s string) ID { return id.FromKey(s) }

// NewSimulator creates a seeded discrete-event simulator.
func NewSimulator(seed int64) *Simulator { return eventsim.New(seed) }

// NewSimNetwork binds a simulator and topology into a message network with
// the given uniform loss rate.
func NewSimNetwork(sim *Simulator, topo *Topology, lossRate float64) *SimNetwork {
	return netmodel.New(sim, topo, lossRate)
}

// DefaultGATechConfig is the paper's 5050-router transit-stub size.
func DefaultGATechConfig() GATechConfig { return topology.DefaultGATech() }

// DefaultMercatorConfig is the scaled AS-structured topology.
func DefaultMercatorConfig() MercatorConfig { return topology.DefaultMercator() }

// DefaultCorpNetConfig is the paper's 298-router corporate network.
func DefaultCorpNetConfig() CorpNetConfig { return topology.DefaultCorpNet() }

// NewGATechTopology generates a transit-stub topology (paper: "GATech").
func NewGATechTopology(cfg GATechConfig, rng *rand.Rand) *Topology {
	return topology.GATech(cfg, rng)
}

// NewMercatorTopology generates an AS-structured topology routed
// AS-path-first with a hop-count metric (paper: "Mercator").
func NewMercatorTopology(cfg MercatorConfig, rng *rand.Rand) *Topology {
	return topology.Mercator(cfg, rng)
}

// NewCorpNetTopology generates a corporate network (paper: "CorpNet").
func NewCorpNetTopology(cfg CorpNetConfig, rng *rand.Rand) *Topology {
	return topology.CorpNet(cfg, rng)
}

// BuildTopology constructs one of the paper's topologies by name
// ("gatech", "mercator", "corpnet") with a scale divisor.
func BuildTopology(name string, scaleDiv int, seed int64) (*Topology, error) {
	return harness.BuildTopology(name, scaleDiv, seed)
}

// GnutellaTrace is the Gnutella measurement-study churn configuration.
func GnutellaTrace() TraceConfig { return trace.Gnutella() }

// OverNetTrace is the OverNet measurement-study churn configuration.
func OverNetTrace() TraceConfig { return trace.OverNet() }

// MicrosoftTrace is the corporate availability-study churn configuration.
func MicrosoftTrace() TraceConfig { return trace.Microsoft() }

// PoissonTrace is the artificial Poisson/exponential churn family
// (paper: session times of 5-600 minutes, 10,000 average nodes).
func PoissonTrace(session time.Duration, avgNodes int, duration time.Duration) TraceConfig {
	return trace.Poisson(session, avgNodes, duration)
}

// GenerateTrace renders a churn configuration into a concrete schedule.
func GenerateTrace(cfg TraceConfig) *Trace { return trace.Generate(cfg) }

// RunExperiment executes one simulation experiment with churn injection,
// lookup workload and ground-truth delivery checking.
func RunExperiment(cfg ExperimentConfig) ExperimentResult { return harness.Run(cfg) }

// DefaultExperiment returns the paper's base experimental configuration.
func DefaultExperiment(topo *Topology, tr *Trace) ExperimentConfig {
	return harness.DefaultConfig(topo, tr)
}

// ListenUDP opens a real-UDP transport for one node.
func ListenUDP(addr string, seed int64) (*UDPTransport, error) {
	return transport.Listen(addr, seed)
}

// NewSquirrel attaches a Squirrel web-cache proxy to a node.
func NewSquirrel(node *Node, origin SquirrelOrigin) *SquirrelProxy {
	return squirrel.New(node, origin)
}

// Squirrel request outcomes.
const (
	// SquirrelHitLocal means the local proxy cache had a fresh copy.
	SquirrelHitLocal = squirrel.HitLocal
	// SquirrelHitRemote means the home node had the object cached.
	SquirrelHitRemote = squirrel.HitRemote
	// SquirrelMissOrigin means the home node fetched from the origin.
	SquirrelMissOrigin = squirrel.MissOrigin
	// SquirrelFailed means the request errored or timed out.
	SquirrelFailed = squirrel.Failed
)

// ErrDHTNotFound reports a Get for a key no responsible node holds (or a
// deleted key).
var ErrDHTNotFound = dht.ErrNotFound

// ErrDHTTimeout reports a DHT operation whose retries were exhausted.
var ErrDHTTimeout = dht.ErrTimeout

// NewDHT attaches a replicated key-value store to a node.
func NewDHT(node *Node, env Env, cfg DHTConfig) *DHTStore {
	return dht.New(node, env, cfg)
}

// DefaultDHTConfig returns k=3 replication with periodic anti-entropy
// sweeps.
func DefaultDHTConfig() DHTConfig { return dht.DefaultConfig() }

// NewMemoryBackend returns an in-memory object store (the DHT default).
func NewMemoryBackend() StoreBackend { return store.NewMemory() }

// OpenDiskStore opens (or creates) a durable object store in dir: writes
// land in a CRC-framed WAL before acknowledgement and the state is
// snapshot-compacted, so a node restarted with the same directory keeps
// its objects. Pass it via DHTConfig.Backend.
func OpenDiskStore(dir string, opts DiskStoreOptions) (StoreBackend, error) {
	return store.Open(dir, opts)
}
