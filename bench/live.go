package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mspastry/internal/dht"
	"mspastry/internal/id"
	"mspastry/internal/pastry"
	"mspastry/internal/store"
	"mspastry/internal/transport"
)

// Fixed parts of the live workloads. As with the simulated ones, the seed
// argument draws the operations (origins, keys, get/put mix); the overlay
// itself — node count, identifiers, configuration — is the workload's
// fixed size, so that mean_hops and with it every latency does not move
// with the seed.
const (
	liveNodes   = 48
	liveLeafSet = 8 // small on purpose: keys are 2+ hops away and the routing table is used
	liveClients = 2
	// liveRTO is the per-hop retransmission timeout of the live overlay;
	// livePastryConfig says why it is this long.
	liveRTO = 5 * time.Second
	// An operation still open after opTimeout counts as failed. None ever
	// is; the limit keeps a lost operation from hanging the run, and is
	// longer than liveRTO so that a lost datagram is retransmitted first.
	opTimeout    = 20 * time.Second
	minLiveHops  = 1.5
	kvValueBytes = 1024
	kvGetShare   = 0.8
	kvKeySeed    = 7
)

// liveWorkload describes a workload on real UDP sockets over the host's
// loopback interface: a closed loop of liveClients clients, each issuing
// its next operation when the previous one completes.
type liveWorkload struct {
	name       string
	kv         bool // dht get/put instead of bare lookups
	opsPerRep  int
	warmup     int // operations issued during set-up, not timed
	keys       int // kv: preloaded keys
	repSeconds float64
}

var liveLookup = liveWorkload{
	name: "live-lookup", opsPerRep: 30000, warmup: 10000, repSeconds: 1.7,
}

var liveKV = liveWorkload{
	name: "live-kv", kv: true, opsPerRep: 20000, warmup: 4000, keys: 8192, repSeconds: 1.4,
}

func (w liveWorkload) label() string { return w.name }

func (w liveWorkload) timedReps(seconds int) int { return repsFor(seconds, w.repSeconds, minLiveReps) }

func (w liveWorkload) quick() workload {
	w.opsPerRep /= 10
	w.warmup /= 10
	w.keys /= 10
	return w
}

func livePastryConfig() pastry.Config {
	cfg := pastry.DefaultConfig()
	cfg.L = liveLeafSet
	// On one host every peer is equally near; proximity probing would
	// only stretch each join by DistProbeCount seconds.
	cfg.PNS = false
	// Loopback loses no datagram (pastry.retx_per_op reads 0), so a hop
	// timeout here is always spurious: the ack is late because the host
	// kept the process off the processor. Each one excludes a healthy peer
	// until its probe answers, and a lookup that meets the exclusion is
	// delivered at a wrong node. With the 10 ms default that happened to 2
	// lookups in 100 000; with 250 ms, to a few in each run that the
	// shared host froze for a third of a second, which it does. Five
	// seconds is beyond any freeze seen here.
	cfg.MinRTO, cfg.MaxRTO = liveRTO, liveRTO
	return cfg
}

// client is one closed-loop issuer. It has at most one operation
// outstanding; key, seq and span identify it to the callbacks that
// complete it.
type client struct {
	rng *rand.Rand

	// Written by the client before it issues, read by completion
	// callbacks on node event loops; guarded by liveOverlay.mu.
	key  id.ID
	seq  uint64
	span int32

	lookupDone chan id.ID   // root that delivered the current lookup
	kvDone     chan kvReply // completion of the current get or put
	version    map[int]uint64
}

type kvReply struct {
	seq   uint64
	value []byte
	err   error
}

// liveOverlay is a formed overlay of in-process nodes, one UDP socket and
// two goroutines each.
type liveOverlay struct {
	w      liveWorkload
	trs    []*transport.UDP
	refs   []pastry.NodeRef
	stores []*dht.Store
	keys   []id.ID

	mu      sync.Mutex
	pending map[id.ID]*client

	hops, delivered atomic.Int64
	activated       atomic.Int32

	// Traced runs only.
	rec  *spanRec
	sink *countingSink
	retx atomic.Int64

	formSeconds float64
}

// liveObserver is the pastry.Observer every node of an overlay shares.
type liveObserver liveOverlay

func (o *liveObserver) Activated(*pastry.Node, time.Duration) { o.activated.Add(1) }

func (o *liveObserver) LookupDropped(*pastry.Node, *pastry.Lookup, pastry.DropReason) {}

// Delivered runs on the root's event loop: it counts hops for every
// delivered lookup (bare or carrying a dht request) and completes the
// bare lookup that is waiting for this key.
func (o *liveObserver) Delivered(n *pastry.Node, lk *pastry.Lookup) {
	o.hops.Add(int64(lk.Hops))
	o.delivered.Add(1)
	if o.w.kv {
		return
	}
	o.mu.Lock()
	c := o.pending[lk.Key]
	o.mu.Unlock()
	if c != nil {
		select {
		case c.lookupDone <- n.Ref().ID:
		default: // a duplicate delivery of an already completed lookup
		}
	}
}

// statsObserver adds pastry.StatsObserver to the shared observer; traced
// overlays use it to count per-hop retransmissions where they are sent.
type statsObserver struct{ *liveObserver }

func (o statsObserver) MessageSent(_ *pastry.Node, _ pastry.Category, retx bool) {
	if retx {
		o.retx.Add(1)
	}
}
func (statsObserver) AckRTT(*pastry.Node, pastry.NodeRef, time.Duration) {}
func (statsObserver) TrtTuned(*pastry.Node, time.Duration)               {}
func (statsObserver) LeafSetRepair(*pastry.Node, string)                 {}

// formOverlay listens, creates and joins every node, and waits until all
// are active. With rec set, every node gets the tracing wrappers.
func (w liveWorkload) formOverlay(rec *spanRec) (*liveOverlay, error) {
	ov := &liveOverlay{w: w, pending: make(map[id.ID]*client), rec: rec}
	t0 := time.Now()
	var obs pastry.Observer = (*liveObserver)(ov)
	if rec != nil {
		obs = statsObserver{(*liveObserver)(ov)}
		ov.sink = &countingSink{}
	}
	for i := 0; i < liveNodes; i++ {
		// The transport's seed draws the node identifier: fixed per slot.
		tr, err := transport.Listen("127.0.0.1:0", int64(i+1))
		if err != nil {
			ov.close()
			return nil, err
		}
		ov.trs = append(ov.trs, tr)
		if ov.sink != nil {
			tr.SetMetricsSink(ov.sink)
		}
		node, err := tr.CreateNode(id.ID{}, livePastryConfig(), obs)
		if err != nil {
			ov.close()
			return nil, err
		}
		ov.refs = append(ov.refs, node.Ref())
		if w.kv {
			ov.addStore(tr, node)
		}
	}
	// One join at a time: 47 simultaneous joins through one seed burst
	// past the sockets' buffers now and then, and a join that loses a
	// message is only retried after 30 s.
	deadline := time.Now().Add(10 * time.Second)
	for i, tr := range ov.trs {
		if i == 0 {
			tr.Do(func(n *pastry.Node) { n.Bootstrap() })
		} else {
			tr.Do(func(n *pastry.Node) { n.Join(ov.refs[0]) })
		}
		for int(ov.activated.Load()) <= i {
			if time.Now().After(deadline) {
				ov.close()
				return nil, fmt.Errorf("node %d of %d did not become active", i, liveNodes)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	ov.formSeconds = time.Since(t0).Seconds()
	return ov, nil
}

// addStore attaches a dht store (k=3, memory backend, cache off) to node.
// Anti-entropy sweeps are pushed out of the run: nothing churns, so there
// is nothing to repair, and a sweep landing in one repetition but not the
// next is noise.
func (ov *liveOverlay) addStore(tr *transport.UDP, node *pastry.Node) {
	cfg := dht.DefaultConfig()
	cfg.SweepInterval = time.Hour
	var app *tracedApp
	if ov.rec != nil {
		app = &tracedApp{ov: ov, cur: -1}
		cfg.Backend = &tracedBackend{inner: store.NewMemory(), app: app}
	}
	tr.DoSync(func(*pastry.Node) {
		st := dht.New(node, tr.Env(), cfg)
		ov.stores = append(ov.stores, st)
		if app != nil {
			app.inner = st
			node.SetApp(app)
		}
	})
}

func (ov *liveOverlay) close() {
	for _, tr := range ov.trs {
		tr.Close()
	}
}

// root is the oracle: the node whose identifier is numerically closest to
// key, computed from the full membership.
func (ov *liveOverlay) root(key id.ID) id.ID {
	best := ov.refs[0].ID
	for _, r := range ov.refs[1:] {
		if id.CloserToKey(key, r.ID, best) {
			best = r.ID
		}
	}
	return best
}

func (ov *liveOverlay) sentTotal() uint64 {
	var sum uint64
	for _, tr := range ov.trs {
		s, _ := tr.Counters()
		sum += s
	}
	return sum
}

// phase is the tally of one batch of closed-loop operations.
type phase struct {
	attempted, failed   int
	lat, getLat, putLat []float64 // microseconds, successful ops only
	problems            []string
}

func (p *phase) merge(q phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.lat = append(p.lat, q.lat...)
	p.getLat = append(p.getLat, q.getLat...)
	p.putLat = append(p.putLat, q.putLat...)
	p.problems = append(p.problems, q.problems...)
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 5 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// Operation kinds of a phase.
const (
	opsLookup = iota // bare lookups
	opsMixed         // kv: kvGetShare gets, the rest puts
	opsGet
	opsPut
)

// newClients builds the closed-loop clients. Each owns the keys whose
// index is congruent to its own, so the expected version of every key is
// known to exactly one goroutine.
func (ov *liveOverlay) newClients() []*client {
	cs := make([]*client, liveClients)
	for i := range cs {
		cs[i] = &client{
			lookupDone: make(chan id.ID, 1),
			// The reply of an operation that timed out can arrive
			// late; room for it beside the current one.
			kvDone:  make(chan kvReply, 2),
			version: make(map[int]uint64),
		}
	}
	return cs
}

// runPhase issues n operations of the given kind, split evenly over the
// clients, and waits for all of them. The operations are drawn from
// stream, so equal arguments give equal operations.
func (ov *liveOverlay) runPhase(cs []*client, kind, n int, stream int64) phase {
	var wg sync.WaitGroup
	parts := make([]phase, len(cs))
	for i, c := range cs {
		c.rng = rand.New(rand.NewSource(stream*int64(len(cs)) + int64(i)))
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			p := &parts[i]
			for j := 0; j < n/len(cs); j++ {
				origin := c.rng.Intn(liveNodes)
				if kind == opsLookup {
					ov.lookupOp(c, origin, id.Random(c.rng), p)
					continue
				}
				ki := c.rng.Intn(len(ov.keys)/liveClients)*liveClients + i
				put := kind == opsPut || kind == opsMixed && c.rng.Float64() >= kvGetShare
				ov.kvOp(c, origin, ki, put, p)
			}
		}(i, c)
	}
	wg.Wait()
	var total phase
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// issue registers the client's next operation (and opens its span in a
// traced run); retire closes it.
func (ov *liveOverlay) issue(c *client, key id.ID) {
	ov.mu.Lock()
	c.seq++
	c.key = key
	c.span = -1
	if ov.rec != nil {
		c.span = ov.rec.begin(spClientOp, -1, uint32(c.seq))
	}
	ov.pending[key] = c
	ov.mu.Unlock()
}

func (ov *liveOverlay) retire(c *client) {
	ov.mu.Lock()
	delete(ov.pending, c.key)
	ov.mu.Unlock()
	if c.span >= 0 {
		ov.rec.end(c.span)
	}
}

// do runs fn on the origin's event loop; a traced run records how long fn
// waited for the loop.
func (ov *liveOverlay) do(c *client, origin int, fn func(n *pastry.Node)) {
	if ov.rec == nil {
		ov.trs[origin].Do(fn)
		return
	}
	span, op, enq := c.span, uint32(c.seq), ov.rec.now()
	ov.trs[origin].Do(func(n *pastry.Node) {
		ov.rec.add(spDoWait, span, op, enq, ov.rec.now())
		fn(n)
	})
}

func (ov *liveOverlay) lookupOp(c *client, origin int, key id.ID, p *phase) {
	p.attempted++ // counted before it is issued
	ov.issue(c, key)
	defer ov.retire(c)
	timeout := time.NewTimer(opTimeout)
	defer timeout.Stop()
	t0 := time.Now()
	ov.do(c, origin, func(n *pastry.Node) { n.Lookup(key, nil) })
	select {
	case got := <-c.lookupDone:
		lat := time.Since(t0)
		if want := ov.root(key); got != want {
			p.fail("lookup %s delivered at %s, root is %s", key, got, want)
			return
		}
		p.lat = append(p.lat, float64(lat.Nanoseconds())/1e3)
	case <-timeout.C:
		p.fail("lookup %s from node %d timed out", key, origin)
	}
}

// kvValue builds the value stored under key at version: both are stamped
// into the bytes, so a get that returns another key's value, or a stale
// or torn version, is detected.
func kvValue(key id.ID, version uint64) []byte {
	v := make([]byte, kvValueBytes)
	copy(v, key.Bytes())
	binary.BigEndian.PutUint64(v[16:], version)
	fill := byte(key.Lo) + byte(version)
	for i := 24; i < len(v); i++ {
		v[i] = fill + byte(i)
	}
	return v
}

func checkKVValue(v []byte, key id.ID, version uint64) error {
	if len(v) != kvValueBytes {
		return fmt.Errorf("value of %d bytes, want %d", len(v), kvValueBytes)
	}
	if got := id.FromBytes(v); got != key {
		return fmt.Errorf("value of key %s", got)
	}
	if got := binary.BigEndian.Uint64(v[16:]); got != version {
		return fmt.Errorf("version %d, want %d", got, version)
	}
	fill := byte(key.Lo) + byte(version)
	for i := 24; i < len(v); i++ {
		if v[i] != fill+byte(i) {
			return fmt.Errorf("byte %d corrupted", i)
		}
	}
	return nil
}

// kvOp puts the next version of key ki, or gets it and checks the bytes
// against the version this client last wrote.
func (ov *liveOverlay) kvOp(c *client, origin, ki int, put bool, p *phase) {
	key := ov.keys[ki]
	p.attempted++
	ov.issue(c, key)
	defer ov.retire(c)
	seq, st := c.seq, ov.stores[origin]
	reply := func(v []byte, err error) {
		select {
		case c.kvDone <- kvReply{seq: seq, value: v, err: err}:
		default:
		}
	}
	timeout := time.NewTimer(opTimeout)
	defer timeout.Stop()
	t0 := time.Now()
	if put {
		value := kvValue(key, c.version[ki]+1)
		ov.do(c, origin, func(*pastry.Node) { st.Put(key, value, func(err error) { reply(nil, err) }) })
	} else {
		ov.do(c, origin, func(*pastry.Node) { st.Get(key, reply) })
	}
	for {
		select {
		case r := <-c.kvDone:
			if r.seq != seq {
				continue // the late reply of an operation that timed out
			}
			lat := float64(time.Since(t0).Nanoseconds()) / 1e3
			switch {
			case r.err != nil:
				p.fail("kv op on %s: %v", key, r.err)
			case put:
				c.version[ki]++
				p.lat, p.putLat = append(p.lat, lat), append(p.putLat, lat)
			default:
				if err := checkKVValue(r.value, key, c.version[ki]); err != nil {
					p.fail("get %s: %v", key, err)
					return
				}
				p.lat, p.getLat = append(p.lat, lat), append(p.getLat, lat)
			}
		case <-timeout.C:
			p.fail("kv op on %s from node %d timed out", key, origin)
		}
		return
	}
}

// preload writes version 1 of every key, each client its own share.
func (ov *liveOverlay) preload(cs []*client) error {
	rng := rand.New(rand.NewSource(kvKeySeed))
	ov.keys = make([]id.ID, ov.w.keys)
	for i := range ov.keys {
		ov.keys[i] = id.Random(rng)
	}
	var wg sync.WaitGroup
	parts := make([]phase, len(cs))
	for ci, c := range cs {
		c.rng = rand.New(rand.NewSource(int64(ci)))
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for ki := ci; ki < len(ov.keys); ki += liveClients {
				ov.kvOp(c, c.rng.Intn(liveNodes), ki, true, &parts[ci])
			}
		}(ci, c)
	}
	wg.Wait()
	for _, p := range parts {
		if p.failed > 0 {
			return fmt.Errorf("preload: %d of %d puts failed: %v", p.failed, p.attempted, p.problems)
		}
	}
	return nil
}

// liveSetup is one complete set-up: a formed overlay (kv: with every key
// preloaded) that has served its warm-up operations.
type liveSetup struct {
	ov *liveOverlay
	cs []*client
}

func (w liveWorkload) setup(rec *spanRec) (liveSetup, error) {
	ov, err := w.formOverlay(rec)
	if err != nil {
		return liveSetup{}, err
	}
	s := liveSetup{ov: ov, cs: ov.newClients()}
	kind := opsLookup
	if w.kv {
		if err := ov.preload(s.cs); err != nil {
			ov.close()
			return liveSetup{}, err
		}
		kind = opsGet
	}
	warm := ov.runPhase(s.cs, kind, w.warmup, -1)
	if warm.failed > 0 {
		ov.close()
		return liveSetup{}, fmt.Errorf("warm-up: %d of %d ops failed: %v", warm.failed, warm.attempted, warm.problems)
	}
	return s, nil
}

// liveReps runs reps+1 repetitions (the first discarded) on a set-up
// overlay and returns the timed samples with their merged tally.
func (w liveWorkload) liveReps(s liveSetup, seed int64, reps int) ([]repSample, []phase, liveCounts) {
	kind := opsLookup
	if w.kv {
		kind = opsMixed
	}
	var timed []repSample
	var phases []phase
	var counts liveCounts
	for i := 0; i <= reps; i++ {
		var p phase
		before := s.ov.counts()
		sample := measureRep(func() int {
			// A stream per (seed, repetition): every repetition is
			// equal work, none repeats another's keys.
			p = s.ov.runPhase(s.cs, kind, w.opsPerRep, seed*1000+int64(i))
			return p.attempted - p.failed
		})
		after := s.ov.counts()
		printRep(i, i == 0, sample)
		if i == 0 {
			continue
		}
		timed = append(timed, sample)
		phases = append(phases, p)
		counts.add(after.sub(before))
	}
	return timed, phases, counts
}

// liveCounts are the overlay-wide counters read around each repetition.
type liveCounts struct {
	sent            uint64
	hops, delivered int64
}

func (ov *liveOverlay) counts() liveCounts {
	return liveCounts{sent: ov.sentTotal(), hops: ov.hops.Load(), delivered: ov.delivered.Load()}
}

func (a liveCounts) sub(b liveCounts) liveCounts {
	return liveCounts{a.sent - b.sent, a.hops - b.hops, a.delivered - b.delivered}
}

func (a *liveCounts) add(b liveCounts) {
	a.sent += b.sent
	a.hops += b.hops
	a.delivered += b.delivered
}

// perRepPercentile reports a latency series as the median over
// repetitions of each repetition's p-quantile.
func perRepPercentile(phases []phase, pick func(phase) []float64, p float64) (float64, error) {
	var per []float64
	for _, ph := range phases {
		s := append([]float64(nil), pick(ph)...)
		sort.Float64s(s)
		v, err := percentile(s, p)
		if err != nil {
			return 0, err
		}
		per = append(per, v)
	}
	return median(per), nil
}

// run measures the workload's end-to-end metrics.
func (w liveWorkload) run(seed int64, reps, setups int) (result, error) {
	var r result
	m := map[string]float64{}
	setupS, s, err := timeSetup(setups, func() (liveSetup, error) { return w.setup(nil) },
		func(s liveSetup) { s.ov.close() })
	if err != nil {
		return r, err
	}
	defer s.ov.close()
	m["setup_s"] = setupS
	fmt.Printf("overlay: %d nodes on 127.0.0.1 (loopback), L=%d, formed in %.3f s\n", liveNodes, liveLeafSet, s.ov.formSeconds)

	timed, phases, counts := w.liveReps(s, seed, reps)
	var all phase
	for _, p := range phases {
		all.merge(p)
	}
	ops := all.attempted - all.failed
	if ops == 0 {
		return r, fmt.Errorf("none of %d operations succeeded: %v", all.attempted, all.problems)
	}
	costMetrics(timed, m)
	m["success_rate"] = float64(ops) / float64(all.attempted)
	m["mean_hops"] = float64(counts.hops) / float64(counts.delivered)
	lat := func(p phase) []float64 { return p.lat }
	if m["lat_p50_us"], err = perRepPercentile(phases, lat, 0.5); err != nil {
		return r, err
	}
	m["datagrams_per_op"] = float64(counts.sent) / float64(ops)
	fmt.Printf("latency: %d samples per rep, p50=%.1fus (median over reps)\n", len(phases[0].lat), m["lat_p50_us"])

	r.attempted, r.failed, r.problems = all.attempted, all.failed, all.problems
	if m["mean_hops"] < minLiveHops {
		r.problems = append(r.problems, fmt.Sprintf("mean_hops %.3f < %.1f: the overlay is too small to exercise the routing table", m["mean_hops"], minLiveHops))
	}
	r.metrics = m
	return r, nil
}
