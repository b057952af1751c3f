package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/harness"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/stats"
	"mspastry/internal/telemetry"
	"mspastry/internal/trace"
)

// Span names of a traced simulated run. bench.driver is the whole run;
// eventsim.step one sim.Step() call; netmodel.send one Env.Send;
// eventsim.schedule one Env.Schedule; pastry.timer the body of a callback
// a node handed to Schedule; observer.* the telemetry and stats work done
// in observer callbacks and traffic hooks; bench.callback the driver's own
// events (lookup generator, churn replay). A step or timer that moved a
// lookup — it sent a lookup or an ack, or reported a delivery or an ack
// round trip — is renamed *.route when it ends; the rest is maintenance.
const (
	spDriver = iota
	spStep
	spStepRoute
	spSend
	spSchedule
	spTimer
	spTimerRoute
	spObsTelemetry
	spObsStats
	spBenchCallback
)

// simSpanRoom is the span count a recorder for a simulated run starts
// with: the windows record about two million.
const simSpanRoom = 3 << 20

var simSpanNames = []string{
	"bench.driver", "eventsim.step", "eventsim.step.route", "netmodel.send", "eventsim.schedule",
	"pastry.timer", "pastry.timer.route", "observer.telemetry", "observer.stats", "bench.callback",
}

// Message kinds the driver counts where they enter the network.
const (
	kindLookup = iota
	kindAck
	kindHeartbeat
	kindOther
	kindApp // direct application messages; the simulated workloads send none
	numKinds
)

func kindOf(m pastry.Message) int {
	switch msg := m.(type) {
	case *pastry.Envelope:
		if msg.Lookup != nil {
			return kindLookup
		}
	case *pastry.Ack:
		return kindAck
	case *pastry.Heartbeat:
		return kindHeartbeat
	case *pastry.AppDirect:
		return kindApp
	}
	return kindOther
}

// simDriver is the benchmark's own small simulation driver. harness.Run
// builds its nodes itself, so nothing can be wrapped around them from
// outside; the driver replays the same experiment (topology, churn
// schedule, seed, rates) with nodes it constructs, which lets it put
// spans around every call a node makes into its Env and Observer. It
// keeps the harness's stats and telemetry feeds and leaves out the
// ground-truth oracle and the loss sweeper; harness.overhead_share is the
// difference.
type simDriver struct {
	cfg    harness.Config
	window time.Duration
	sim    *eventsim.Simulator
	nw     *netmodel.Network
	base   int // topology index of slot 0
	slots  []simSlot
	// active lists the slots of active nodes, for picking join seeds.
	active []int
	pos    map[int]int

	tel *telemetry.Overlay
	col *stats.Collector

	// wrap gives every node a simEnv instead of its bare endpoint;
	// traced runs and probe overlays need it.
	wrap bool
	// rec is a traced run's recorder. Spans are recorded only once
	// recording is set, for the measured window — the ramp is set-up —
	// but timers are wrapped from the start, so that one armed during the
	// ramp still shows as a pastry.timer when it fires in the window.
	rec       *spanRec
	recording bool
	cur       int32 // innermost open span; the simulator is single-threaded
	// stepRoute and timerRoute are raised when the current step or timer
	// is seen to move a lookup.
	stepRoute, timerRoute bool

	kinds      [numKinds]int64
	bytes      int64
	delivered  int
	pendingSum int64
	rampWall   time.Duration
}

type simSlot struct {
	ep   *netmodel.Endpoint
	env  *simEnv
	node *pastry.Node
}

func newSimDriver(cfg harness.Config, wrap bool, rec *spanRec) *simDriver {
	sim := eventsim.New(cfg.Seed)
	d := &simDriver{
		cfg:    cfg,
		window: cfg.Trace.Duration,
		sim:    sim,
		nw:     netmodel.New(sim, cfg.Topo, 0),
		pos:    make(map[int]int),
		col:    stats.NewCollector(cfg.Trace.Duration, cfg.Window),
		wrap:   wrap || rec != nil,
		rec:    rec,
		cur:    -1,
	}
	d.tel = telemetry.NewOverlay(cfg.Telemetry, nil, telemetry.OverlayOptions{SharedClock: true})
	d.base = cfg.Topo.Attach(cfg.Trace.Nodes, sim.Rand())
	d.slots = make([]simSlot, cfg.Trace.Nodes)
	for i := range d.slots {
		ep := d.nw.NewEndpoint(d.base + i)
		d.slots[i] = simSlot{ep: ep, env: &simEnv{ep: ep, d: d}}
	}
	d.nw.OnSend(func(_ *netmodel.Endpoint, _ pastry.NodeRef, m pastry.Message, size int) {
		k := kindOf(m)
		if d.measured() >= 0 {
			d.kinds[k]++
			d.bytes += int64(size)
		}
		if k == kindLookup || k == kindAck {
			d.stepRoute, d.timerRoute = true, true
		}
		s := d.open(spObsStats)
		t := d.measured()
		d.col.MsgSent(t, m.Category(), size)
		if env, ok := m.(*pastry.Envelope); ok && env.Retx {
			d.col.Retransmit(t)
		}
		d.close(s)
	})
	d.nw.OnFrame(func(_ *netmodel.Endpoint, f netmodel.FrameInfo) {
		s := d.open(spObsStats)
		d.col.DatagramSent(d.measured(), f.Control, f.Bytes, f.SingleBytes)
		d.close(s)
	})
	return d
}

func (d *simDriver) measured() time.Duration { return d.sim.Now() - d.cfg.SetupRamp }

// open starts a span under the innermost open one; without a recorder it
// does nothing.
func (d *simDriver) open(name uint8) int32 {
	if !d.recording {
		return -1
	}
	d.cur = d.rec.begin(name, d.cur, 0)
	return d.cur
}

func (d *simDriver) close(s int32) {
	if s < 0 {
		return
	}
	d.rec.end(s)
	d.cur = d.rec.spans[s].parent
}

// callback runs one of the driver's own events inside a span.
func (d *simDriver) callback(fn func()) func() {
	return func() {
		s := d.open(spBenchCallback)
		fn()
		d.close(s)
	}
}

// run executes the experiment: the join ramp, then the measured window.
func (d *simDriver) run() {
	rng := d.sim.Rand()
	for i, slot := range d.cfg.Trace.Initial {
		slot, at := slot, time.Duration(0)
		if i > 0 {
			at = time.Duration(rng.Int63n(int64(d.cfg.SetupRamp)))
		}
		d.sim.At(at, d.callback(func() { d.startNode(slot) }))
	}
	for _, ev := range d.cfg.Trace.Events {
		ev := ev
		fn := func() { d.startNode(ev.Node) }
		if ev.Kind == trace.Leave {
			fn = func() { d.failNode(ev.Node) }
		}
		d.sim.At(d.cfg.SetupRamp+ev.At, d.callback(fn))
	}
	t0 := time.Now()
	d.runUntil(d.cfg.SetupRamp)
	d.rampWall = time.Since(t0)
	d.recording = d.rec != nil
	root := d.open(spDriver)
	d.runUntil(d.cfg.SetupRamp + d.window)
	d.close(root)
}

// runUntil steps the simulator up to virtual time t. Stepping by hand
// (rather than sim.RunUntil) is what lets a traced run wrap each step.
func (d *simDriver) runUntil(t time.Duration) {
	done := false
	d.sim.At(t, func() { done = true })
	for !done {
		if !d.recording {
			d.sim.Step()
			continue
		}
		d.pendingSum += int64(d.sim.Pending())
		d.stepRoute = false
		s := d.open(spStep)
		d.sim.Step()
		if d.stepRoute {
			d.rec.spans[s].name = spStepRoute
		}
		d.close(s)
	}
}

func (d *simDriver) startNode(slot int) {
	s := &d.slots[slot]
	if s.node != nil && s.node.Alive() {
		return
	}
	var env pastry.Env = s.ep
	if d.wrap {
		env = s.env
	}
	self := pastry.NodeRef{ID: id.Random(d.sim.Rand()), Addr: s.ep.Addr()}
	node, err := pastry.NewNode(self, d.cfg.Pastry, env, (*simObserver)(d))
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err)) // the config was validated by the harness run before
	}
	node.SetSeedSource(d.randomActive)
	s.node = node
	s.ep.Bind(node)
	if seed, ok := d.randomActive(); ok {
		node.Join(seed)
	} else {
		node.Bootstrap()
	}
}

func (d *simDriver) failNode(slot int) {
	s := &d.slots[slot]
	if s.node == nil || !s.node.Alive() {
		return
	}
	wasActive := s.node.Active()
	s.ep.Fail()
	if !wasActive {
		return
	}
	// Swap-remove from the active list.
	i, last := d.pos[slot], len(d.active)-1
	d.active[i] = d.active[last]
	d.pos[d.active[i]] = i
	d.active = d.active[:last]
	delete(d.pos, slot)
	d.col.ActiveChanged(d.measured(), -1)
}

func (d *simDriver) randomActive() (pastry.NodeRef, bool) {
	if len(d.active) == 0 {
		return pastry.NodeRef{}, false
	}
	return d.slots[d.active[d.sim.Rand().Intn(len(d.active))]].node.Ref(), true
}

func (d *simDriver) slotOf(n *pastry.Node) int {
	idx, err := strconv.Atoi(n.Ref().Addr)
	if err != nil {
		panic("bench: endpoint address " + n.Ref().Addr)
	}
	return idx - d.base
}

// scheduleLookups runs the Poisson lookup generator for a node, as the
// harness does.
func (d *simDriver) scheduleLookups(n *pastry.Node) {
	if d.cfg.LookupRate <= 0 {
		return
	}
	next := func() time.Duration {
		return time.Duration(d.sim.Rand().ExpFloat64() / d.cfg.LookupRate * float64(time.Second))
	}
	var fire func()
	fire = d.callback(func() {
		if !n.Alive() {
			return
		}
		if _, ok := n.Lookup(id.Random(d.sim.Rand()), nil); ok {
			d.col.LookupIssued(d.measured())
		}
		d.sim.After(next(), fire)
	})
	d.sim.After(next(), fire)
}

// simObserver is the driver as pastry.Observer, TraceObserver and
// StatsObserver: it forwards to the telemetry overlay and the stats
// collector like the harness's observer, inside spans.
type simObserver simDriver

func (o *simObserver) telemetry(fn func()) {
	d := (*simDriver)(o)
	s := d.open(spObsTelemetry)
	fn()
	d.close(s)
}

func (o *simObserver) Activated(n *pastry.Node, joinLatency time.Duration) {
	d := (*simDriver)(o)
	slot := d.slotOf(n)
	d.pos[slot] = len(d.active)
	d.active = append(d.active, slot)
	s := d.open(spObsStats)
	d.col.ActiveChanged(d.measured(), +1)
	if d.measured() >= 0 {
		d.col.JoinLatency(joinLatency)
	}
	d.close(s)
	o.telemetry(func() { d.tel.Activated(n, joinLatency) })
	d.scheduleLookups(n)
}

func (o *simObserver) Delivered(n *pastry.Node, lk *pastry.Lookup) {
	d := (*simDriver)(o)
	d.stepRoute, d.timerRoute = true, true
	o.telemetry(func() { d.tel.Delivered(n, lk) })
	issued := lk.Issued - d.cfg.SetupRamp
	if issued >= 0 {
		d.delivered++
	}
	origin, err := strconv.Atoi(lk.Origin.Addr)
	if err != nil {
		panic("bench: endpoint address " + lk.Origin.Addr)
	}
	s := d.open(spObsStats)
	// No oracle here: the delivering node stands in for the root when
	// charging the direct network delay.
	netDelay := d.cfg.Topo.Delay(origin, d.base+d.slotOf(n))
	d.col.LookupDelivered(issued, true, d.sim.Now()-lk.Issued, netDelay, lk.Hops)
	d.close(s)
}

func (o *simObserver) LookupDropped(n *pastry.Node, lk *pastry.Lookup, reason pastry.DropReason) {
	d := (*simDriver)(o)
	o.telemetry(func() { d.tel.LookupDropped(n, lk, reason) })
	s := d.open(spObsStats)
	d.col.LookupLost(lk.Issued - d.cfg.SetupRamp)
	d.close(s)
}

func (o *simObserver) LookupIssued(n *pastry.Node, lk *pastry.Lookup) {
	o.telemetry(func() { o.tel.LookupIssued(n, lk) })
}

func (o *simObserver) LookupHop(n *pastry.Node, lk *pastry.Lookup, to pastry.NodeRef, cause pastry.HopCause) {
	o.telemetry(func() { o.tel.LookupHop(n, lk, to, cause) })
}

func (o *simObserver) MessageSent(n *pastry.Node, cat pastry.Category, retx bool) {
	o.telemetry(func() { o.tel.MessageSent(n, cat, retx) })
}

func (o *simObserver) AckRTT(n *pastry.Node, to pastry.NodeRef, rtt time.Duration) {
	o.stepRoute, o.timerRoute = true, true
	o.telemetry(func() { o.tel.AckRTT(n, to, rtt) })
}

func (o *simObserver) TrtTuned(n *pastry.Node, trt time.Duration) {
	o.telemetry(func() { o.tel.TrtTuned(n, trt) })
}

func (o *simObserver) LeafSetRepair(n *pastry.Node, cause string) {
	o.telemetry(func() { o.tel.LeafSetRepair(n, cause) })
}

// simEnv is the pastry.Env of a driver-built node: the node's endpoint,
// with a span around every Send and Schedule and around the body of every
// timer in a traced run. Setting null detaches the node from the
// simulation so that a probe can call it in isolation.
type simEnv struct {
	ep   *netmodel.Endpoint
	d    *simDriver
	null *nullEnv
}

func (e *simEnv) Now() time.Duration { return e.ep.Now() }
func (e *simEnv) Rand() *rand.Rand   { return e.ep.Rand() }

func (e *simEnv) Send(to pastry.NodeRef, m pastry.Message) {
	if e.null != nil {
		e.null.Send(to, m)
		return
	}
	s := e.d.open(spSend)
	e.ep.Send(to, m)
	e.d.close(s)
}

func (e *simEnv) Schedule(delay time.Duration, fn func()) pastry.Timer {
	if e.null != nil {
		return e.null.Schedule(delay, fn)
	}
	d := e.d
	if d.rec == nil {
		return e.ep.Schedule(delay, fn)
	}
	s := d.open(spSchedule)
	t := e.ep.Schedule(delay, func() {
		d.timerRoute = false
		ts := d.open(spTimer)
		fn()
		if ts >= 0 && d.timerRoute {
			d.rec.spans[ts].name = spTimerRoute
		}
		d.close(ts)
	})
	d.close(s)
	return t
}

// timeOnce collects garbage and times fn.
func timeOnce(fn func()) float64 {
	runtime.GC()
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// traced measures the workload's per-layer metrics: probes of each layer
// the simulator uses, and the same experiment run three ways — through
// harness.Run, through the bench's driver, and through the driver with
// spans on — reps+1 times each, interleaved, the first round discarded.
func (w simWorkload) traced(seed int64, reps int) (result, error) {
	var r result
	m := map[string]float64{}
	topo, err := w.setup(seed)
	if err != nil {
		return r, err
	}
	cfg := func() harness.Config { return w.config(topo, seed, w.window) }

	var harnessS, driverS, tracedS []float64
	var harnessReps []repSample
	var out simOutcome
	var plain, withSpans *simDriver
	var gc gcCost
	rec := newSpanRec(false, simSpanRoom, simSpanNames...)
	for i := 0; i <= reps; i++ {
		var stop func() gcCost
		hr := measureRep(func() int {
			stop = gcSince()
			out = w.runOnce(topo, seed)
			return out.ops
		})
		h := hr.wall.Seconds()
		if i > 0 {
			gc.add(stop())
			harnessReps = append(harnessReps, hr)
		}
		plain = newSimDriver(cfg(), false, nil)
		d := timeOnce(plain.run)
		rec.spans = rec.spans[:0] // each round records afresh into the same room
		withSpans = newSimDriver(cfg(), false, rec)
		t := timeOnce(withSpans.run)
		note := ""
		if i == 0 {
			note = " (discarded)"
		} else {
			harnessS, driverS, tracedS = append(harnessS, h), append(driverS, d), append(tracedS, t)
		}
		fmt.Printf("round %d: harness.Run=%.4fs driver=%.4fs traced driver=%.4fs%s\n", i, h, d, t, note)
	}
	hs, ds, ts := median(harnessS), median(driverS), median(tracedS)
	m["harness.overhead_share"] = 1 - ds/hs
	m["trace.overhead_share"] = (ts - ds) / ts
	gc.report(m)
	m["cpu_us_per_op"] = cpuPerOp(harnessReps)

	// Exact counts from the harness run, the real workload.
	t, ops := out.res.Totals, float64(out.ops)
	m["rdp"] = t.RDP
	m["sim_delay_p99_ms"] = 1e3 * out.delay.Quantile(0.99)
	m["control_msgs_per_node_s"] = t.ControlPerNodeSec
	m["eventsim.events_per_op"] = float64(out.res.SimEvents) / ops
	m["netmodel.msgs_per_op"] = t.TotalPerNodeSec * out.nodeSec / ops
	m["pastry.control_msgs_per_op"] = t.ControlPerNodeSec * out.nodeSec / ops
	m["pastry.retx_per_op"] = float64(t.Retransmits) / ops
	m["wire.msgs_per_datagram"] = t.TotalPerNodeSec / t.DatagramsPerNodeSec
	fmt.Printf("driver vs harness: delivered %d vs %d, mean hops %.4f vs %.4f\n",
		plain.delivered, t.Delivered, plain.col.Totals().MeanHops, t.MeanHops)

	// Counts only the driver can see.
	m["wire.bytes_per_op"] = float64(plain.bytes) / float64(plain.ops(w))
	m["pastry.join_us_per_node"] = 1e6 * plain.rampWall.Seconds() / float64(len(plain.cfg.Trace.Initial))
	records, alive := 0, 0
	for _, s := range plain.slots {
		if s.node != nil && s.node.Alive() {
			records += s.node.Peers().Len()
			alive++
		}
	}
	m["peer.records_per_node"] = float64(records) / float64(alive)

	// Probes, on the state and message mix the workload produced.
	spans := rec.kept()
	tot := sumSpans(spans, len(rec.names))
	steps := int(tot.count[spStep] + tot.count[spStepRoute])
	stepNs := probeEventsim(int(withSpans.pendingSum)/steps, m)
	probeNetmodel(topo, m)
	ov := probeOverlay(topo, w.nodes, cfg().Pastry)
	msgs := probePastry(ov, 0, m)
	probePeer(records/alive, m)
	probeWire(msgs, plain.kinds, false, m)
	probeTelemetry(m)

	// The traced window's time, split among the layers. Every span
	// nests inside the window's bench.driver span, so the self times
	// add up to its duration.
	total := float64(tot.incl[spDriver])
	pop := func(name int) float64 { // the part of these steps that is the event engine's pop
		return math.Min(stepNs*float64(tot.count[name]), float64(tot.self[name]))
	}
	share := func(ns float64) float64 { return ns / total }
	m["eventsim.self_share"] = share(float64(tot.self[spSchedule]) + pop(spStep) + pop(spStepRoute))
	m["netmodel.self_share"] = share(float64(tot.self[spSend]))
	m["pastry.route_share"] = share(float64(tot.self[spStepRoute]) - pop(spStepRoute) + float64(tot.self[spTimerRoute]))
	m["pastry.maint_share"] = share(float64(tot.self[spStep]) - pop(spStep) + float64(tot.self[spTimer]))
	m["telemetry.self_share"] = share(float64(tot.self[spObsTelemetry]))
	m["stats.self_share"] = share(float64(tot.self[spObsStats]))
	m["bench.self_share"] = share(float64(tot.self[spDriver] + tot.self[spBenchCallback]))
	nodeSec := withSpans.col.Totals().MeanActive * w.window.Seconds()
	m["pastry.timer_us_per_node_s"] = float64(tot.incl[spTimer]+tot.incl[spTimerRoute]) / 1e3 / nodeSec
	r.problems = checkShares(m)

	path, err := rec.dump(w.name, spans, tot)
	if err != nil {
		return r, err
	}
	fmt.Printf("spans: %d recorded in the measured window, written to bench/%s\n", len(spans), path)
	r.attempted, r.failed = w.attemptedFailed(out)
	r.metrics = m
	return r, nil
}

// ops returns the driver run's count of the workload's unit of work.
func (d *simDriver) ops(w simWorkload) int {
	if w.nodeSecondOps {
		return int(math.Round(d.col.Totals().MeanActive * d.window.Seconds()))
	}
	return d.delivered
}

// checkShares verifies that the partition shares add up to one.
func checkShares(m map[string]float64) []string {
	sum := 0.0
	for _, name := range partitionShares {
		sum += m[name]
	}
	if math.Abs(sum-1) > 0.02 {
		return []string{fmt.Sprintf("layer shares sum to %.4f, want 1 ± 0.02", sum)}
	}
	return nil
}
