// Package harness runs MSPastry evaluation experiments: it builds a
// topology, drives a churn trace through a simulated overlay with
// fault injection, generates lookup traffic, checks every delivery against
// the ground-truth root, and produces the windowed metrics the paper plots.
package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/overload"
	"mspastry/internal/pastry"
	"mspastry/internal/secure"
	"mspastry/internal/stats"
	"mspastry/internal/telemetry"
	"mspastry/internal/topology"
	"mspastry/internal/trace"
)

// Config describes one simulation experiment.
type Config struct {
	// Topo is the network topology (required; see BuildTopology).
	Topo *topology.Network
	// Trace is the churn schedule (required).
	Trace *trace.Trace
	// Pastry is the protocol configuration.
	Pastry pastry.Config
	// LookupRate is application lookups per second per active node
	// (paper base: 0.01, Poisson, keys uniform).
	LookupRate float64
	// NetworkLoss is the uniform message loss probability.
	NetworkLoss float64
	// Window is the metric averaging window (paper: 10 min, or 1 h for
	// the Microsoft trace).
	Window time.Duration
	// SetupRamp spreads the trace's initially-active nodes' joins over
	// this interval before measurement starts.
	SetupRamp time.Duration
	// Service bounds every endpoint's receive capacity (queue limit and
	// processing rate); see netmodel.ServiceModel. The zero value keeps
	// the classic infinite-capacity model.
	Service netmodel.ServiceModel
	// Faults is an optional scripted fault scenario: timed
	// netmodel.Fault windows (partitions, per-link loss, delay spikes,
	// jitter, duplication, reordering) applied on top of the uniform loss
	// model. Event times are measured times.
	Faults *FaultScript
	// Telemetry, when non-nil, receives the run's metrics under the same
	// metric names a live mspastry-node exports on /metrics, so sim
	// experiments and deployments feed identical dashboards.
	Telemetry *telemetry.Registry
	// TraceLookups records every node's telemetry events, hops included;
	// the result carries the tracer and its route-reconstruction stats.
	// The Telemetry overlay records them, so Run panics without it.
	TraceLookups bool
	// MaliciousFraction marks this fraction of slots Byzantine: their
	// nodes run the normal protocol but attack routing with every
	// behaviour of netmodel.Adversary. Zero disables the adversary
	// entirely and reproduces pre-adversary runs bit-for-bit.
	MaliciousFraction float64
	// App, when non-nil, is mounted on every node the run starts and its
	// workload started when measurement begins (see App). One value serves
	// one run: it keeps what it mounted.
	App App
	// Zipf, when non-nil, draws lookup keys from its popular key set (see
	// NewZipf); nil draws them uniformly from the id space, the paper's
	// model.
	Zipf *Zipf
	// Seed seeds all randomness (ids, lookup keys, loss, faults,
	// adversary selection) but a Zipf's key set, which NewZipf seeds.
	Seed int64

	// lossTimeout is how long a lookup may remain undelivered before it
	// counts as lost: one minute, except in this package's fixed-seed
	// golden run, which was recorded at 30 s.
	lossTimeout time.Duration
}

// DefaultConfig returns the paper's base experimental configuration for
// the given topology and trace.
func DefaultConfig(topo *topology.Network, tr *trace.Trace) Config {
	return Config{
		Topo:       topo,
		Trace:      tr,
		Pastry:     pastry.DefaultConfig(),
		LookupRate: 0.01,
		Window:     10 * time.Minute,
		SetupRamp:  2 * time.Minute,
		Seed:       1,
	}
}

// Result carries everything an experiment produces.
type Result struct {
	Windows []stats.WindowStat
	Totals  stats.Totals
	JoinCDF []stats.CDFPoint
	// Aggregated protocol counters over all node instances, and secure
	// layer counters over all layers (zero unless Config.App is a
	// SecureRouting).
	Counters pastry.Counters
	Secure   secure.Counters
	// NetworkDrops counts messages lost to injected faults (uniform loss,
	// per-link loss, partitions).
	NetworkDrops uint64
	// DropsByCause classifies every undelivered network message, telling
	// injected faults (loss, linkloss, partition) apart from churn
	// artifacts (unknown, dead or reincarnated destinations).
	DropsByCause [netmodel.NumDropCauses]uint64
	// FaultCounts tallies injected duplication and reordering.
	FaultCounts netmodel.FaultCounters
	// ShedByLane counts service-model queue sheds per priority lane (all
	// zero without Config.Service).
	ShedByLane [overload.NumLanes]uint64
	// Adversary tallies Byzantine attack activity (zero without
	// Config.MaliciousFraction).
	Adversary netmodel.AdversaryStats
	// Phases splits lookup outcomes into before/during/after the fault
	// window (zero value when no fault script was set).
	Phases stats.PhaseTotals
	// Recovery holds one entry per healed partition: the time from heal
	// to restored global ring consistency.
	Recovery []stats.RecoveryStat
	// SimEvents is the number of simulator events executed.
	SimEvents uint64
	// DropsByReason counts explicit lookup drops by protocol reason;
	// TimeoutLost counts lookups that silently never arrived.
	DropsByReason map[pastry.DropReason]int
	TimeoutLost   int
	// TrtMedian samples the self-tuned probing period at the end of the
	// run (median over live nodes).
	TrtMedian time.Duration
	// Tracer holds every node's telemetry events (nil unless TraceLookups
	// was set); its Stats summarise route-path reconstruction from them.
	Tracer *telemetry.Tracer
}

// Run executes the experiment.
func Run(cfg Config) Result {
	r := newRun(cfg)
	return r.execute()
}

type run struct {
	cfg   Config
	sim   *eventsim.Simulator
	nw    *netmodel.Network
	col   *stats.Collector
	setup time.Duration

	slots  []*slot
	active *ring

	outstanding map[lookupKey]outstandingLookup

	counters    pastry.Counters
	dropReasons map[pastry.DropReason]int
	timeoutLost int
	recovery    []stats.RecoveryStat

	// obs is what every node reports to: the run itself, behind a
	// telemetry overlay (shared registry and hop tracer) when
	// cfg.Telemetry is set.
	obs    pastry.Observer
	tracer *telemetry.Tracer

	// adv is the configured Byzantine adversary (nil when
	// cfg.MaliciousFraction is zero).
	adv *netmodel.Adversary
}

type slot struct {
	ep     *netmodel.Endpoint
	node   *pastry.Node
	issuer Issuer // what Config.App's mount issues lookups with; nil for the node
}

type lookupKey struct {
	origin string
	seq    uint64
}

type outstandingLookup struct {
	key     id.ID
	issued  time.Duration // measured-time (relative to setup end)
	originE int
}

func newRun(cfg Config) *run {
	if cfg.Topo == nil || cfg.Trace == nil {
		panic("harness: Topo and Trace are required")
	}
	if cfg.TraceLookups && cfg.Telemetry == nil {
		panic("harness: TraceLookups records through Telemetry, which is nil")
	}
	if cfg.lossTimeout <= 0 {
		cfg.lossTimeout = time.Minute
	}
	if cfg.Window <= 0 {
		cfg.Window = 10 * time.Minute
	}
	sim := eventsim.New(cfg.Seed)
	nw := netmodel.New(sim, cfg.Topo, cfg.NetworkLoss)
	r := &run{
		cfg:         cfg,
		sim:         sim,
		nw:          nw,
		col:         stats.NewCollector(cfg.Trace.Duration, cfg.Window),
		setup:       cfg.SetupRamp,
		active:      &ring{},
		outstanding: make(map[lookupKey]outstandingLookup),
		slots:       make([]*slot, cfg.Trace.Nodes),
		dropReasons: make(map[pastry.DropReason]int),
	}
	first := cfg.Topo.Attach(cfg.Trace.Nodes, sim.Rand())
	for i := range r.slots {
		r.slots[i] = &slot{ep: nw.NewEndpoint(first + i)}
	}
	if cfg.MaliciousFraction > 0 {
		if cfg.MaliciousFraction >= 1 {
			panic("harness: MaliciousFraction must be in [0,1)")
		}
		r.adv = nw.Adversary()
		r.adv.SetBehaviors(netmodel.AdvAll)
		// Which slots are malicious is drawn from a dedicated stream so
		// the selection never perturbs the simulator's seeded randomness:
		// an f=0 run reproduces a no-adversary run bit-for-bit.
		sel := rand.New(rand.NewSource(cfg.Seed ^ 0x42d06c01))
		k := int(cfg.MaliciousFraction*float64(len(r.slots)) + 0.5)
		if k > len(r.slots) {
			k = len(r.slots)
		}
		for _, i := range sel.Perm(len(r.slots))[:k] {
			r.adv.Mark(r.slots[i].ep.Addr())
		}
	}
	r.obs = (*runObserver)(r)
	if cfg.Telemetry != nil {
		if cfg.TraceLookups {
			r.tracer = telemetry.NewTracer(0)
		}
		r.obs = telemetry.NewOverlay(cfg.Telemetry, r.tracer,
			telemetry.OverlayOptions{Inner: r.obs, SharedClock: true})
	}
	nw.SetServiceModel(cfg.Service)
	nw.OnSend(func(from *netmodel.Endpoint, to pastry.NodeRef, m pastry.Message, singleBytes int) {
		t := r.measured()
		r.col.MsgSent(t, m.Category(), singleBytes)
		if env, ok := m.(*pastry.Envelope); ok && env.Retx {
			r.col.Retransmit(t)
		}
	})
	r.applyFaults()
	return r
}

// measured returns the current time relative to the start of measurement.
func (r *run) measured() time.Duration { return r.sim.Now() - r.setup }

func (r *run) execute() Result {
	cfg := r.cfg
	rng := r.sim.Rand()

	// Setup phase: the initially-active nodes join over the ramp.
	for i, slotIdx := range cfg.Trace.Initial {
		slotIdx := slotIdx
		if i == 0 {
			r.sim.At(0, func() { r.startNode(slotIdx, true) })
			continue
		}
		at := time.Duration(rng.Int63n(int64(r.setup)))
		r.sim.At(at, func() { r.startNode(slotIdx, false) })
	}

	// Churn injection: trace events shifted by the setup ramp.
	for _, ev := range cfg.Trace.Events {
		ev := ev
		at := r.setup + ev.At
		switch ev.Kind {
		case trace.Join:
			r.sim.At(at, func() { r.startNode(ev.Node, false) })
		case trace.Leave:
			r.sim.At(at, func() { r.failNode(ev.Node) })
		}
	}

	if cfg.App != nil {
		r.sim.At(r.setup, func() { cfg.App.Start(r.sim) })
	}

	// Loss sweeper.
	var sweep func()
	sweep = func() {
		r.sweepLost()
		r.sim.After(cfg.lossTimeout/2, sweep)
	}
	r.sim.After(cfg.lossTimeout, sweep)

	r.sim.RunUntil(r.setup + cfg.Trace.Duration)

	// Final sweep: anything still outstanding past the timeout is lost.
	r.sweepLost()

	res := Result{
		Windows:       r.col.Finalize(),
		Totals:        r.col.Totals(),
		JoinCDF:       r.col.JoinLatencyCDF(),
		NetworkDrops:  r.nw.Drops(),
		DropsByCause:  r.nw.DropsByCause,
		FaultCounts:   r.nw.FaultCounts,
		ShedByLane:    r.nw.ShedByLane,
		Phases:        r.col.Phases(),
		Recovery:      r.recovery,
		SimEvents:     r.sim.Steps(),
		DropsByReason: r.dropReasons,
		TimeoutLost:   r.timeoutLost,
		Tracer:        r.tracer,
	}
	if r.adv != nil {
		res.Adversary = r.adv.Stats
	}
	var trts []time.Duration
	for _, s := range r.slots {
		if s.node != nil && s.node.Alive() {
			r.counters.Add(s.node.Stats())
			if s.node.Active() {
				trts = append(trts, s.node.Trt())
			}
		}
	}
	sort.Slice(trts, func(i, j int) bool { return trts[i] < trts[j] })
	if len(trts) > 0 {
		res.TrtMedian = trts[len(trts)/2]
	}
	res.Counters = r.counters
	if sec, ok := cfg.App.(*SecureRouting); ok {
		res.Secure = sec.stats()
	}
	if r.cfg.Telemetry != nil {
		// Mirror the run-aggregated node counters into the registry so a
		// metrics dump carries the same names a live node serves.
		r.cfg.Telemetry.SetGauges(r.counters)
		r.cfg.Telemetry.SetGauges(res.Secure)
		r.cfg.Telemetry.SetGauges(telemetry.Trt{Seconds: res.TrtMedian.Seconds()})
	}
	return res
}

// startNode creates a fresh node instance on the slot's endpoint and joins
// it to the overlay (or bootstraps the very first overlay member).
func (r *run) startNode(slotIdx int, bootstrap bool) {
	s := r.slots[slotIdx]
	if s.node != nil && s.node.Alive() {
		return // duplicate join in trace; ignore
	}
	self := pastry.NodeRef{ID: id.Random(r.sim.Rand()), Addr: s.ep.Addr()}
	node, err := pastry.NewNode(self, r.cfg.Pastry, s.ep, r.obs)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	node.SetSeedSource(func() (pastry.NodeRef, bool) { return r.randomActiveRef() })
	s.node, s.issuer = node, nil
	s.ep.Bind(node)
	if r.cfg.App != nil {
		s.issuer = r.cfg.App.Mount(slotIdx, node, s.ep)
	}
	if bootstrap || r.active.len() == 0 {
		node.Bootstrap()
		return
	}
	if seed, ok := r.randomActiveRef(); ok {
		node.Join(seed)
	} else {
		node.Bootstrap()
	}
}

// failNode crashes the node currently bound to the slot.
func (r *run) failNode(slotIdx int) {
	s := r.slots[slotIdx]
	if s.node == nil || !s.node.Alive() {
		return
	}
	wasActive := s.node.Active()
	r.counters.Add(s.node.Stats())
	s.ep.Fail()
	if wasActive {
		r.active.remove(s.node.Ref().ID)
		r.col.ActiveChanged(r.measured(), -1)
	}
}

func (r *run) randomActiveRef() (pastry.NodeRef, bool) {
	e, ok := r.active.random(r.sim.Rand())
	if !ok {
		return pastry.NodeRef{}, false
	}
	s := r.slots[e.slot]
	if s.node == nil {
		return pastry.NodeRef{}, false
	}
	return s.node.Ref(), true
}

// nextKey draws one lookup key from the configured workload.
func (r *run) nextKey() id.ID {
	if r.cfg.Zipf != nil {
		return r.cfg.Zipf.Next(r.sim.Rand())
	}
	return id.Random(r.sim.Rand())
}

// scheduleLookups starts the Poisson lookup generator for a node.
func (r *run) scheduleLookups(n *pastry.Node, issuer Issuer) {
	if r.cfg.LookupRate <= 0 {
		return
	}
	g := &lookupGen{r: r, n: n, issuer: issuer, origin: mustAtoi(n.Ref().Addr)}
	r.sim.Schedule(r.sim.Now()+g.gap(), g)
}

// lookupGen is one node's lookup generator: the eventsim.Handler that
// issues a lookup and schedules itself for the next, so a lookup costs the
// harness no event handle and no closure. It stops when its node dies.
type lookupGen struct {
	r      *run
	n      *pastry.Node
	issuer Issuer // issues the lookups when set
	origin int    // the node's endpoint index
}

func (g *lookupGen) gap() time.Duration {
	return expDuration(g.r.sim, 1/g.r.cfg.LookupRate)
}

// Fire implements eventsim.Handler.
func (g *lookupGen) Fire() {
	r, n := g.r, g.n
	if !n.Alive() {
		return
	}
	key := r.nextKey()
	var seq uint64
	var ok bool
	if g.issuer != nil {
		seq, ok = g.issuer.Lookup(key)
	} else {
		seq, ok = n.Lookup(key, nil)
	}
	if ok {
		r.outstanding[lookupKey{origin: n.Ref().Addr, seq: seq}] = outstandingLookup{
			key:     key,
			issued:  r.measured(),
			originE: g.origin,
		}
		r.col.LookupIssued(r.measured())
	}
	r.sim.Schedule(r.sim.Now()+g.gap(), g)
}

func (r *run) slotBase() int { return r.slots[0].ep.Index() }

func mustAtoi(s string) int {
	v, err := strconv.Atoi(s)
	if err != nil {
		panic("harness: bad endpoint addr " + s)
	}
	return v
}

func expDuration(sim *eventsim.Simulator, meanSec float64) time.Duration {
	return time.Duration(sim.Rand().ExpFloat64() * meanSec * float64(time.Second))
}

// sweepLost marks outstanding lookups older than the loss timeout as lost.
func (r *run) sweepLost() {
	now := r.measured()
	for k, o := range r.outstanding {
		if now-o.issued >= r.cfg.lossTimeout {
			if o.issued >= 0 {
				r.col.LookupLost(o.issued)
				r.timeoutLost++
			}
			delete(r.outstanding, k)
		}
	}
}

// runObserver adapts *run to pastry.Observer. It has the three core
// methods only, so a node without telemetry skips the optional trace and
// stats observers entirely.
type runObserver run

// Activated implements pastry.Observer: the node enters the ground-truth
// active set and starts generating lookups.
func (o *runObserver) Activated(n *pastry.Node, joinLatency time.Duration) {
	r := (*run)(o)
	slotIdx := mustAtoi(n.Ref().Addr) - r.slotBase()
	r.active.insert(n.Ref().ID, slotIdx)
	r.col.ActiveChanged(r.measured(), +1)
	if r.measured() >= 0 {
		r.col.JoinLatency(joinLatency)
	}
	r.scheduleLookups(n, r.slots[slotIdx].issuer)
}

// Delivered implements pastry.Observer: judge the delivery against the
// ground-truth root and record RDP.
func (o *runObserver) Delivered(n *pastry.Node, lk *pastry.Lookup) {
	r := (*run)(o)
	k := lookupKey{origin: lk.Origin.Addr, seq: lk.Seq}
	out, ok := r.outstanding[k]
	if !ok {
		return // duplicate delivery, or issued before measurement
	}
	delete(r.outstanding, k)
	rootEntry, haveRoot := r.active.closest(out.key)
	correct := haveRoot && rootEntry.id == n.Ref().ID
	var netDelay time.Duration
	if haveRoot {
		rootEp := r.slots[rootEntry.slot].ep.Index()
		netDelay = r.cfg.Topo.Delay(out.originE, rootEp)
	}
	r.col.LookupDelivered(out.issued, correct, r.measured()-out.issued, netDelay, lk.Hops)
}

// LookupDropped implements pastry.Observer.
func (o *runObserver) LookupDropped(n *pastry.Node, lk *pastry.Lookup, reason pastry.DropReason) {
	r := (*run)(o)
	k := lookupKey{origin: lk.Origin.Addr, seq: lk.Seq}
	out, ok := r.outstanding[k]
	if !ok {
		return
	}
	delete(r.outstanding, k)
	if out.issued >= 0 {
		r.col.LookupLost(out.issued)
		r.dropReasons[reason]++
	}
}
