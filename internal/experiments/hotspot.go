package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mspastry/internal/dht"
	"mspastry/internal/eventsim"
	"mspastry/internal/harness"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/topology"
)

// The hotspot experiment quantifies the path-caching tentpole: under a
// zipf(s≈1) read workload, a handful of key roots absorb most of the
// lookup traffic, and PR 5's overload machinery can only shed it. With
// hotspot caching on, replies to hot keys are deposited on the route's
// first and penultimate hops and subsequent lookups short-circuit
// there, so the hot root's load factor and the cluster's shed count
// drop while lookup success holds. The experiment runs the same seeded
// cluster four times — caching off/on, each with and without churn —
// with identical workload schedules, and additionally audits every
// completed read against the subsystem's staleness bound (no read may
// return a write superseded more than one sweep interval plus delivery
// grace before the read was issued) and monotonicity (no reader ever
// observes a version older than one it already read).

// hotspotSweep is the anti-entropy sweep interval, which is also the
// cache TTL backstop and therefore the staleness bound under test.
// Short, so the bound is tight and several purge cycles fit in the run.
const hotspotSweep = 15 * time.Second

// hotspotGrace covers end-to-end delivery latency (propagation plus
// bounded-queue delay) when auditing the staleness bound: a write acked
// more than sweep+grace before a read was issued must be visible.
const hotspotGrace = 2 * time.Second

// hotspotConfig shapes the experiment.
type hotspotConfig struct {
	nodes       int           // cluster size
	keys        int           // popular key set size
	zipfS       float64       // zipf exponent over the key set
	getRate     float64       // reads per second per node
	putInterval time.Duration // per-key rewrite period (staggered)
	duration    time.Duration // measurement window
	cacheSize   int           // per-node cache entries in the "on" runs
	seed        int64
}

// hotspotRun is one mode's outcome.
type hotspotRun struct {
	gets, getOK, getNotFound, getFail uint64

	// cache is the stores' counter delta over the window (Retries and
	// the Cache* fields).
	cache               dht.Counters
	shed                uint64
	staleBeyondBound    uint64 // reads older than sweep+grace: must be 0
	monotonicViolations uint64 // reads below the reader's floor: must be 0
	// loads and peaks are each endpoint's mean and peak load factor.
	loads, peaks []float64
}

// success is completed-OK reads over issued reads.
func (r hotspotRun) success() float64 { return ratio(float64(r.getOK), float64(r.gets)) }

// hotspotResult holds the four runs: caching off/on, stable/churn.
type hotspotResult struct {
	// hot is the endpoint with the highest mean load factor in the
	// caching-off stable run: the hot key's root.
	hot int

	offStable, onStable hotspotRun
	offChurn, onChurn   hotspotRun
}

// relief is the headline ratio: the hot root's mean load factor with
// caching off over caching on, in the stable runs (the acceptance bar
// is >= 2x).
func (r hotspotResult) relief() float64 {
	return ratio(r.offStable.loads[r.hot], r.onStable.loads[r.hot])
}

// hotspotRuns runs the four-way comparison over identical seeded
// workloads.
func hotspotRuns(cfg hotspotConfig) hotspotResult {
	res := hotspotResult{
		offStable: hotspotOne(cfg, false, false),
		onStable:  hotspotOne(cfg, true, false),
		offChurn:  hotspotOne(cfg, false, true),
		onChurn:   hotspotOne(cfg, true, true),
	}
	// The hot endpoint is wherever the uncached stable run piled up.
	for i, l := range res.offStable.loads {
		if l > res.offStable.loads[res.hot] {
			res.hot = i
		}
	}
	return res
}

// hotspotRelief derives the bench shape (about 100 nodes at the default
// scale) from s.
func hotspotRelief(s Scale) (Report, error) {
	cfg := hotspotConfig{
		nodes:       max(40, s.PoissonNodes*2/5),
		keys:        64,
		zipfS:       1.0,
		getRate:     2,
		putInterval: 30 * time.Second,
		duration:    6 * time.Minute,
		cacheSize:   256,
		seed:        s.Seed,
	}
	if s.HotspotNodes > 0 {
		cfg.nodes = s.HotspotNodes
	}
	if s.HotspotDuration > 0 {
		cfg.duration = s.HotspotDuration
	}
	r := hotspotRuns(cfg)
	t := Table{
		Title: fmt.Sprintf("Hotspot mitigation: path caching under zipf(%.1f) (%d nodes, %d keys, %v window)",
			cfg.zipfS, cfg.nodes, cfg.keys, cfg.duration.Round(time.Second)),
		Cols: []string{"ok%", "hotLoad", "hotPeak", "shed", "hitsL", "hitsR", "served", "depos", "inval", "stale>b"},
	}
	runs := []hotspotRun{r.offStable, r.onStable, r.offChurn, r.onChurn}
	for i, label := range []string{"off/stable", "on/stable", "off/churn", "on/churn"} {
		run := runs[i]
		t.Rows = append(t.Rows, Row{Label: label, Values: map[string]float64{
			"ok%":     run.success() * 100,
			"hotLoad": run.loads[r.hot],
			"hotPeak": run.peaks[r.hot],
			"shed":    float64(run.shed),
			"hitsL":   float64(run.cache.CacheHitsLocal),
			"hitsR":   float64(run.cache.CacheHitsRemote),
			"served":  float64(run.cache.CacheServes),
			"depos":   float64(run.cache.CacheDeposits),
			"inval":   float64(run.cache.CacheInvalidations),
			"stale>b": float64(run.staleBeyondBound),
		}})
	}
	return Report{Tables: []Table{t}, Headlines: []Headline{{"relief", r.relief()}}}, nil
}

// hotspotValue encodes a key's write counter into a 64-byte PAST-style
// body; hotspotCounter gets it back.
func hotspotValue(keyIdx, counter uint32) []byte {
	v := make([]byte, 64)
	binary.BigEndian.PutUint32(v[0:4], keyIdx)
	binary.BigEndian.PutUint32(v[4:8], counter)
	return v
}

func hotspotCounter(v []byte) (uint32, bool) {
	if len(v) < 8 {
		return 0, false
	}
	return binary.BigEndian.Uint32(v[4:8]), true
}

// hotspotOne builds a seeded cluster under the bounded service-capacity
// model and drives the zipf read workload plus a staggered rewrite
// schedule over it. All randomness (zipf ranks, requester selection)
// comes from dedicated streams scheduled at deterministic times, so
// every mode sees the identical workload.
func hotspotOne(cfg hotspotConfig, caching, churn bool) hotspotRun {
	sim := eventsim.New(cfg.seed)
	topo := topology.CorpNet(topology.CorpNetConfig{Hubs: 6, EdgeRouters: 30},
		rand.New(rand.NewSource(cfg.seed)))
	nw := netmodel.New(sim, topo, 0)
	// The same bounded capacity the overload experiment saturates: the
	// hot root's relief must show up as a load-factor drop, not vanish
	// into an infinite queue.
	nw.SetServiceModel(netmodel.ServiceModel{QueueLimit: 32, Rate: 50})

	pcfg := pastry.DefaultConfig()
	pcfg.L = 8
	pcfg.PNS = false
	// Under queueing delay the default MinRTO misreads backlog as loss
	// and the retransmit storm collapses the run (see overload.go): a
	// full queue adds up to QueueLimit/Rate = 640ms each way.
	pcfg.MinRTO = 1500 * time.Millisecond
	pcfg.RetryBudgetRate = 0.2
	pcfg.RetryBudgetBurst = 2

	dcfg := dht.DefaultConfig()
	dcfg.SweepInterval = hotspotSweep
	if caching {
		dcfg.CacheEntries = cfg.cacheSize
	}

	stores := make([]*dht.Store, 0, cfg.nodes)
	eps := nw.NewCluster(cfg.nodes, pcfg, 2*time.Second, func(_ int, node *pastry.Node, ep *netmodel.Endpoint) {
		stores = append(stores, dht.New(node, ep, dcfg))
	}).Eps
	sim.RunUntil(sim.Now() + time.Minute)

	// The popular key set and its zipf(s) ranks come from the harness's
	// sampler: its own key stream, so the set matches across modes.
	zipf := harness.NewZipf(cfg.seed, cfg.keys, cfg.zipfS)

	// Prefill every key (counter 1) and let replication settle.
	counters := make([]uint32, cfg.keys)
	type ackRec struct {
		counter uint32
		at      time.Duration
	}
	ackLog := make([][]ackRec, cfg.keys)
	writer := func(k int) int { return (k*7 + 3) % cfg.nodes }
	putKey := func(k int) {
		if !stores[writer(k)].Node().Alive() {
			return
		}
		counters[k]++
		c := counters[k]
		kk := k
		stores[writer(k)].Put(zipf.Key(k), hotspotValue(uint32(k), c), func(err error) {
			if err == nil {
				ackLog[kk] = append(ackLog[kk], ackRec{counter: c, at: sim.Now()})
			}
		})
	}
	for k := 0; k < cfg.keys; k++ {
		putKey(k)
		if k%8 == 7 {
			sim.RunUntil(sim.Now() + time.Second)
		}
	}
	sim.RunUntil(sim.Now() + 30*time.Second + 2*hotspotSweep)

	var run hotspotRun
	start := sim.Now()
	end := start + cfg.duration

	// Staggered rewrites: each key every PutInterval, spread evenly.
	var rewrite func(k int)
	rewrite = func(k int) {
		if sim.Now() >= end {
			return
		}
		putKey(k)
		sim.After(cfg.putInterval, func() { rewrite(k) })
	}
	for k := 0; k < cfg.keys; k++ {
		kk := k
		sim.After(time.Duration(k+1)*cfg.putInterval/time.Duration(cfg.keys),
			func() { rewrite(kk) })
	}

	// The zipf read workload: one global arrival process at the
	// aggregate rate, requester and rank drawn from a dedicated stream.
	// lastRead tracks each reader's floor per key for the monotonic
	// audit; ackLog gives the staleness bound.
	wl := rand.New(rand.NewSource(cfg.seed ^ 0x40753a9))
	// Monotonic reads are a session guarantee over *sequential* reads:
	// two overlapping in-flight reads may legitimately complete out of
	// order. A completed read only raises the reader's floor, and only a
	// read issued after the floor-setting read completed can violate it.
	type readFloor struct {
		counter     uint32
		completedAt time.Duration
	}
	lastRead := make([]map[int]readFloor, cfg.nodes)
	for i := range lastRead {
		lastRead[i] = make(map[int]readFloor)
	}
	boundAt := func(k int, issued time.Duration) uint32 {
		bound := uint32(0)
		for _, a := range ackLog[k] {
			if a.at+hotspotSweep+hotspotGrace <= issued {
				bound = a.counter
			} else {
				break
			}
		}
		return bound
	}
	gap := time.Duration(float64(time.Second) / (cfg.getRate * float64(cfg.nodes)))
	var readLoop func()
	readLoop = func() {
		if sim.Now() >= end {
			return
		}
		n := wl.Intn(cfg.nodes)
		k := zipf.Rank(wl)
		if stores[n].Node().Alive() {
			run.gets++
			issued := sim.Now()
			stores[n].Get(zipf.Key(k), func(v []byte, err error) {
				switch {
				case err == nil:
					run.getOK++
					c, ok := hotspotCounter(v)
					if !ok {
						return
					}
					if c < boundAt(k, issued) {
						run.staleBeyondBound++
					}
					fl := lastRead[n][k]
					if c < fl.counter && issued > fl.completedAt {
						run.monotonicViolations++
					}
					if c >= fl.counter {
						lastRead[n][k] = readFloor{counter: c, completedAt: sim.Now()}
					}
				case errors.Is(err, dht.ErrNotFound):
					run.getNotFound++
				default:
					run.getFail++
				}
			})
		}
		sim.After(gap, readLoop)
	}
	sim.After(gap, readLoop)

	// Load sampling at a fixed cadence (no randomness: identical event
	// schedule in every mode).
	run.loads = make([]float64, cfg.nodes)
	run.peaks = make([]float64, cfg.nodes)
	samples := 0
	var sample func()
	sample = func() {
		if sim.Now() >= end {
			return
		}
		samples++
		for i, ep := range eps {
			lf := ep.LoadFactor()
			run.loads[i] += lf
			if lf > run.peaks[i] {
				run.peaks[i] = lf
			}
		}
		sim.After(500*time.Millisecond, sample)
	}
	sim.After(500*time.Millisecond, sample)

	// Churn: crash 10% of the population mid-run, one sweep apart,
	// never the seed node and with the same victims in every mode.
	if churn {
		crashes := max(1, cfg.nodes/10)
		victim := 1
		at := start + cfg.duration/3
		for i := 0; i < crashes; i++ {
			victim = (victim + 7) % cfg.nodes
			if victim == 0 {
				victim = 1
			}
			v := victim
			sim.After(at-sim.Now()+time.Duration(i)*hotspotSweep, func() { eps[v].Fail() })
		}
	}

	before := sumCounters(stores)
	shedBefore := sumShed(nw)
	sim.RunUntil(end)
	// Let in-flight reads finish so success accounting is not truncated
	// at the window edge (no new reads are issued past end).
	sim.RunUntil(end + 30*time.Second)

	after := sumCounters(stores)
	run.cache = dht.Counters{
		Retries:            after.Retries - before.Retries,
		CacheHitsLocal:     after.CacheHitsLocal - before.CacheHitsLocal,
		CacheHitsRemote:    after.CacheHitsRemote - before.CacheHitsRemote,
		CacheServes:        after.CacheServes - before.CacheServes,
		CacheDeposits:      after.CacheDeposits - before.CacheDeposits,
		CacheInvalidations: after.CacheInvalidations - before.CacheInvalidations,
		CacheStaleRejected: after.CacheStaleRejected - before.CacheStaleRejected,
	}
	run.shed = sumShed(nw) - shedBefore
	for i := range run.loads {
		if samples > 0 {
			run.loads[i] /= float64(samples)
		}
	}
	return run
}

func sumShed(nw *netmodel.Network) uint64 {
	var total uint64
	for _, n := range nw.ShedByLane {
		total += n
	}
	return total
}
