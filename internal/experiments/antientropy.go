package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"mspastry/internal/dht"
	"mspastry/internal/eventsim"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/store"
	"mspastry/internal/topology"
)

// The anti-entropy experiment quantifies the tentpole claim of the
// storage subsystem: replacing an unconditional full-value sweep push
// with Merkle digest reconciliation cuts steady-state maintenance
// bandwidth by an order of magnitude, because in the common case (the
// replicas agree) a sweep costs one root-digest exchange per replica
// pair instead of one value push per object. The experiment builds a
// seeded cluster, stores a corpus, crashes a tenth of the nodes and
// measures the maintenance bytes the sweeps send over that window. The
// full-push side is not run — the store no longer has that mode — but
// computed: every sweep, every object's root would send the encoded
// object to its k-1 replicas, whatever their state.
//
// The crash schedule matters: anti-entropy must still move the values a
// new replica is missing, so churn is where the two are closest. The
// reduction ratio reported is therefore a lower bound on the
// steady-state saving.

// antiEntropySweep is the sweep interval. Shorter than the production
// default so a few minutes of simulated time cover several
// reconciliation cycles.
const antiEntropySweep = 20 * time.Second

// antiEntropyResult is what the sweeps of all nodes sent during the
// measurement window, next to what full pushes would have.
type antiEntropyResult struct {
	window time.Duration
	// sent is the counter delta over the window: MaintBytes is all sweep
	// maintenance traffic (control + values), DigestBytes its
	// digest/summary/pull control portion.
	sent dht.Counters
	// fullPushBytes and fullPushes are the closed-form baseline: corpus
	// wire bytes × (k−1) × sweeps in the window.
	fullPushBytes, fullPushes uint64
}

// reduction is baseline maintenance bytes over anti-entropy maintenance
// bytes — the headline ratio (higher is better; the acceptance bar for
// the subsystem is >= 5x under churn).
func (r antiEntropyResult) reduction() float64 {
	return ratio(float64(r.fullPushBytes), float64(r.sent.MaintBytes))
}

// antiEntropyRun builds a seeded cluster, stores the objects, then
// measures the maintenance-byte delta over a churn window. It drives its
// own cluster because the harness has no application layer.
func antiEntropyRun(seed int64, nodes, objects int) antiEntropyResult {
	sim := eventsim.New(seed)
	topo := topology.CorpNet(topology.CorpNetConfig{Hubs: 6, EdgeRouters: 30}, rand.New(rand.NewSource(seed)))
	nw := netmodel.New(sim, topo, 0)

	pcfg := pastry.DefaultConfig()
	pcfg.L = 8
	pcfg.PNS = false
	dcfg := dht.DefaultConfig()
	dcfg.SweepInterval = antiEntropySweep

	stores := make([]*dht.Store, 0, nodes)
	eps := nw.NewCluster(nodes, pcfg, 2*time.Second, func(_ int, node *pastry.Node, ep *netmodel.Endpoint) {
		stores = append(stores, dht.New(node, ep, dcfg))
	}).Eps
	sim.RunUntil(sim.Now() + time.Minute)

	// Store the corpus from rotating writers; the 64-byte payload is the
	// PAST-style document body whose repeated re-push a full-push sweep
	// pays for. Batched puts with short settles keep simulated time (and
	// therefore sweep count) independent of the store's internals.
	payload := make([]byte, 64)
	for i := 0; i < objects; i++ {
		key := id.FromKey(fmt.Sprintf("ae-object-%d", i))
		copy(payload, fmt.Sprintf("object %d body", i))
		stores[i%nodes].Put(key, append([]byte(nil), payload...), func(error) {})
		if i%8 == 7 {
			sim.RunUntil(sim.Now() + time.Second)
		}
	}
	// Drain retries and replication, then let two sweeps run so handoffs
	// settle before measurement starts.
	sim.RunUntil(sim.Now() + time.Minute + 2*antiEntropySweep)

	before := sumCounters(stores)
	corpusBytes := replicateBytes(stores)
	start := sim.Now()

	// Churn: crash 10% of the population (at least one node), spread one
	// sweep interval apart, then leave three quiet sweeps at the end so
	// repair traffic lands inside the window.
	crashes := max(1, nodes/10)
	victim := 1 // never the seed node; deterministic stride across the ring
	for i := 0; i < crashes; i++ {
		victim = (victim + 7) % nodes
		if victim == 0 {
			victim = 1
		}
		eps[victim].Fail()
		sim.RunUntil(sim.Now() + antiEntropySweep)
	}
	sim.RunUntil(sim.Now() + 3*antiEntropySweep)

	after := sumCounters(stores)
	res := antiEntropyResult{window: sim.Now() - start}
	res.sent.MaintBytes = after.MaintBytes - before.MaintBytes
	res.sent.DigestBytes = after.DigestBytes - before.DigestBytes
	res.sent.SyncRounds = after.SyncRounds - before.SyncRounds
	res.sent.SyncClean = after.SyncClean - before.SyncClean
	res.sent.SyncKeysRepaired = after.SyncKeysRepaired - before.SyncKeysRepaired
	res.sent.ReplicasPushed = after.ReplicasPushed - before.ReplicasPushed
	pushesPerObject := uint64(dht.ReplicationFactor-1) * uint64(res.window/antiEntropySweep)
	res.fullPushes = uint64(objects) * pushesPerObject
	res.fullPushBytes = corpusBytes * pushesPerObject
	return res
}

// sumCounters totals the counters of all stores. Crashed nodes are
// included: their counters freeze at the crash (the sweep checks Alive
// and the network stops delivery), so the frozen value cancels out of any
// before/after delta. Skipping them would make the delta underflow
// instead.
func sumCounters(stores []*dht.Store) dht.Counters {
	var sum dht.Counters
	for _, s := range stores {
		sum.Add(s.Counters())
	}
	return sum
}

// replicateBytes is the wire size of one replica push of every distinct
// stored object: a kind byte plus the object's encoding.
func replicateBytes(stores []*dht.Store) uint64 {
	seen := make(map[id.ID]bool)
	var total uint64
	for _, s := range stores {
		s.Backend().Range(func(o store.Object) bool {
			if !seen[o.Key] {
				seen[o.Key] = true
				total += 1 + uint64(len(store.EncodeObject(nil, o)))
			}
			return true
		})
	}
	return total
}

// antiEntropy takes only the seed from the scale: 100 nodes and 1,000
// objects run in under a second.
func antiEntropy(s Scale) (Report, error) {
	const nodes, objects = 100, 1000
	r := antiEntropyRun(s.Seed, nodes, objects)
	t := Table{
		Title: fmt.Sprintf("Anti-entropy vs full-push sweep maintenance (%d nodes, %d objects, %v window)",
			nodes, objects, r.window.Round(time.Second)),
		Cols: []string{"maintKB", "digestKB", "rounds", "clean", "repaired", "pushes"},
		Rows: []Row{
			{Label: "full-push (closed form)", Values: map[string]float64{
				"maintKB": float64(r.fullPushBytes) / 1024,
				"pushes":  float64(r.fullPushes),
			}},
			{Label: "anti-entropy", Values: map[string]float64{
				"maintKB":  float64(r.sent.MaintBytes) / 1024,
				"digestKB": float64(r.sent.DigestBytes) / 1024,
				"rounds":   float64(r.sent.SyncRounds),
				"clean":    float64(r.sent.SyncClean),
				"repaired": float64(r.sent.SyncKeysRepaired),
				"pushes":   float64(r.sent.ReplicasPushed),
			}},
		},
	}
	return Report{Tables: []Table{t}, Headlines: []Headline{{"reduction", r.reduction()}}}, nil
}
