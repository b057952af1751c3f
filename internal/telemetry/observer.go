package telemetry

import (
	"time"

	"mspastry/internal/pastry"
)

// OverlayOptions tunes an Overlay observer.
type OverlayOptions struct {
	// Inner is an optional observer to chain (for example the node
	// command's log observer). Its plain Observer methods are called after
	// the metrics are recorded.
	Inner pastry.Observer
	// SharedClock declares that every node's clock reads the same virtual
	// time (true in the simulator). End-to-end lookup delay is only
	// recorded when set: over real transports each node's clock has its
	// own epoch, so root-minus-origin differences are meaningless.
	SharedClock bool
}

// Overlay records the paper's §5.2 metrics from a node's protocol events
// into a Registry (and, optionally, per-hop traces into a Tracer). One
// Overlay serves any number of nodes: the simulator attaches all its
// instances to a single Overlay so a run's metrics aggregate, while a live
// node has exactly one. The metric names are identical in both worlds.
type Overlay struct {
	reg    *Registry
	tracer *Tracer
	opts   OverlayOptions

	issued      *Counter
	delivered   *Counter
	dropped     *CounterVec
	hops        *Histogram
	delay       *Histogram
	sent        *CounterVec
	retx        *Counter
	ackRTT      *Histogram
	trt         *Gauge
	repairs     *CounterVec
	joins       *Counter
	joinLatency *Histogram
}

// NewOverlay creates an overlay observer recording into reg and, when
// tracer is non-nil, tracing every lookup's hops.
func NewOverlay(reg *Registry, tracer *Tracer, opts OverlayOptions) *Overlay {
	return &Overlay{
		reg:    reg,
		tracer: tracer,
		opts:   opts,

		issued: reg.Counter("mspastry_lookups_issued_total",
			"Application lookups that entered the overlay at this node."),
		delivered: reg.Counter("mspastry_lookups_delivered_total",
			"Lookups delivered by this node as the key's root."),
		dropped: reg.CounterVec("mspastry_lookups_dropped_total",
			"Lookups dropped by the overlay, by protocol reason.", "reason"),
		hops: reg.Histogram("mspastry_lookup_hops",
			"Overlay hops of delivered lookups.", HopBuckets),
		delay: reg.Histogram("mspastry_lookup_delay_seconds",
			"End-to-end delay of delivered lookups (simulator only: requires a shared clock).",
			DefBuckets),
		sent: reg.CounterVec("mspastry_messages_sent_total",
			"Protocol messages sent, by the paper's Figure 4 traffic category.", "category"),
		retx: reg.Counter("mspastry_hop_retransmits_total",
			"Per-hop retransmissions (reroutes and backoffs)."),
		ackRTT: reg.Histogram("mspastry_ack_rtt_seconds",
			"Per-hop ack round-trip samples (first transmissions only, Karn's rule).",
			DefBuckets),
		trt: reg.Gauge("mspastry_trt_seconds",
			"Most recent self-tuned routing-table probing period Trt."),
		repairs: reg.CounterVec("mspastry_leafset_repairs_total",
			"Leaf-set repair probe launches, by cause.", "cause"),
		joins: reg.Counter("mspastry_joins_total",
			"Nodes that completed the join protocol and became active."),
		joinLatency: reg.Histogram("mspastry_join_latency_seconds",
			"Join latency from first request to activation.", DefBuckets),
	}
}

// Registry returns the backing registry.
func (o *Overlay) Registry() *Registry { return o.reg }

// Tracer returns the hop tracer (nil when tracing is off).
func (o *Overlay) Tracer() *Tracer { return o.tracer }

// Activated implements pastry.Observer.
func (o *Overlay) Activated(n *pastry.Node, joinLatency time.Duration) {
	o.joins.Inc()
	o.joinLatency.Observe(joinLatency.Seconds())
	if o.opts.Inner != nil {
		o.opts.Inner.Activated(n, joinLatency)
	}
}

// Delivered implements pastry.Observer.
func (o *Overlay) Delivered(n *pastry.Node, lk *pastry.Lookup) {
	o.delivered.Inc()
	o.hops.Observe(float64(lk.Hops))
	if o.opts.SharedClock {
		o.delay.Observe((n.Now() - lk.Issued).Seconds())
	}
	if o.tracer != nil {
		o.tracer.Deliver(lk, n.Ref(), n.Now())
	}
	if o.opts.Inner != nil {
		o.opts.Inner.Delivered(n, lk)
	}
}

// LookupDropped implements pastry.Observer.
func (o *Overlay) LookupDropped(n *pastry.Node, lk *pastry.Lookup, reason pastry.DropReason) {
	o.dropped.With(reason.String()).Inc()
	if o.tracer != nil {
		o.tracer.Drop(lk, reason, n.Now())
	}
	if o.opts.Inner != nil {
		o.opts.Inner.LookupDropped(n, lk, reason)
	}
}

// LookupIssued implements pastry.TraceObserver.
func (o *Overlay) LookupIssued(n *pastry.Node, lk *pastry.Lookup) {
	o.issued.Inc()
	if o.tracer != nil {
		o.tracer.Begin(lk, n.Now())
	}
}

// LookupHop implements pastry.TraceObserver.
func (o *Overlay) LookupHop(n *pastry.Node, lk *pastry.Lookup, to pastry.NodeRef, cause pastry.HopCause) {
	if o.tracer != nil {
		o.tracer.Hop(lk, n.Ref(), to, cause, n.Now())
	}
}

// MessageSent implements pastry.StatsObserver.
func (o *Overlay) MessageSent(n *pastry.Node, cat pastry.Category, retx bool) {
	o.sent.With(cat.String()).Inc()
	if retx {
		o.retx.Inc()
	}
}

// AckRTT implements pastry.StatsObserver.
func (o *Overlay) AckRTT(n *pastry.Node, to pastry.NodeRef, rtt time.Duration) {
	o.ackRTT.Observe(rtt.Seconds())
}

// TrtTuned implements pastry.StatsObserver.
func (o *Overlay) TrtTuned(n *pastry.Node, trt time.Duration) {
	o.trt.Set(trt.Seconds())
}

// LeafSetRepair implements pastry.StatsObserver.
func (o *Overlay) LeafSetRepair(n *pastry.Node, cause string) {
	o.repairs.With(cause).Inc()
}
