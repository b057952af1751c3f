package experiments

import (
	"fmt"
	"time"

	"mspastry/internal/dht"
	"mspastry/internal/eventsim"
	"mspastry/internal/harness"
	"mspastry/internal/id"
	"mspastry/internal/store"
)

// The anti-entropy experiment quantifies the tentpole claim of the
// storage subsystem: replacing an unconditional full-value sweep push
// with Merkle digest reconciliation cuts steady-state maintenance
// bandwidth by an order of magnitude, because in the common case (the
// replicas agree) a sweep costs one root-digest exchange per replica
// pair instead of one value push per object. The experiment runs a
// seeded overlay of dht stores, stores a corpus, crashes a tenth of the
// nodes and measures the maintenance bytes the sweeps send over that
// window. The full-push side is not run — the store no longer has that
// mode — but computed: every sweep, every object's root would send the
// encoded object to its k-1 replicas, whatever their state.
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
	// sent is what the stores counted over the window: MaintBytes is all
	// sweep maintenance traffic (control + values), DigestBytes its
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

// antiEntropyRun stores the objects on a stable overlay of dht stores,
// then measures the maintenance-byte delta over a window in which a tenth
// of the nodes crash, one sweep interval apart, followed by three quiet
// sweeps so repair traffic lands inside the window.
func antiEntropyRun(seed int64, nodes, objects int) antiEntropyResult {
	dcfg := dht.DefaultConfig()
	dcfg.SweepInterval = antiEntropySweep
	app := &antiEntropyApp{dhtMount: newDHTMount(nodes, dcfg), objects: objects}
	// The window opens once the corpus is stored (objects/8 seconds of
	// batched puts), retries and replication have drained (a minute) and
	// two sweeps have let handoffs settle.
	app.start = dhtSettle + time.Duration(objects/8)*time.Second + time.Minute + 2*antiEntropySweep
	crashes := max(1, nodes/10)
	window := time.Duration(crashes+3) * antiEntropySweep
	tr := withCrashes(stableTrace("antientropy", nodes, app.start+window), app.start, antiEntropySweep)
	harness.Run(dhtRunConfig(seed, tr, app))

	res := antiEntropyResult{window: window, sent: app.window()}
	pushesPerObject := uint64(dht.ReplicationFactor-1) * uint64(res.window/antiEntropySweep)
	res.fullPushes = uint64(objects) * pushesPerObject
	res.fullPushBytes = app.corpusBytes * pushesPerObject
	return res
}

// antiEntropyApp stores the corpus and snapshots the stores when the
// window opens.
type antiEntropyApp struct {
	*dhtMount
	objects int
	// start is when the window opens, in measured time.
	start       time.Duration
	corpusBytes uint64
}

// Start implements harness.App. Writers rotate over the slots; the
// 64-byte payload is the PAST-style document body whose repeated re-push
// a full-push sweep pays for. Batches of eight puts a second keep
// simulated time (and therefore sweep count) independent of the store's
// internals.
func (a *antiEntropyApp) Start(sim *eventsim.Simulator) {
	t0 := sim.Now()
	for i := 0; i < a.objects; i++ {
		key := id.FromKey(fmt.Sprintf("ae-object-%d", i))
		payload := make([]byte, 64)
		copy(payload, fmt.Sprintf("object %d body", i))
		s := a.bySlot[i%len(a.bySlot)]
		sim.At(t0+dhtSettle+time.Duration(i/8)*time.Second, func() { s.Put(key, payload, func(error) {}) })
	}
	sim.At(t0+a.start, func() {
		a.openWindow()
		a.corpusBytes = replicateBytes(a.stores)
	})
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
