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
// into a Registry and, optionally, each call as an Event into a Tracer. One
// Overlay serves any number of nodes: the simulator attaches all its
// instances to a single Overlay so a run's metrics aggregate, while a live
// node has exactly one. The metric names are identical in both worlds.
type Overlay struct {
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
	repairs     *CounterVec
	joins       *Counter
	joinLatency *Histogram
}

// NewOverlay creates an overlay observer recording into reg and, when
// tracer is non-nil, every call but MessageSent and TrtTuned into tracer.
func NewOverlay(reg *Registry, tracer *Tracer, opts OverlayOptions) *Overlay {
	return &Overlay{
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
		repairs: reg.CounterVec("mspastry_leafset_repairs_total",
			"Leaf-set repair probe launches, by cause.", "cause"),
		joins: reg.Counter("mspastry_joins_total",
			"Nodes that completed the join protocol and became active."),
		joinLatency: reg.Histogram("mspastry_join_latency_seconds",
			"Join latency from first request to activation.", DefBuckets),
	}
}

// record appends one event to the tracer, if there is one.
func (o *Overlay) record(n *pastry.Node, kind Kind, cause string, lk *pastry.Lookup, peer pastry.NodeRef, detail int64) {
	if o.tracer == nil {
		return
	}
	e := Event{At: n.Now(), Node: n.Ref(), Kind: kind, Cause: cause, Peer: peer, Detail: detail}
	if lk != nil {
		e.TraceID, e.Origin, e.Seq = lk.TraceID, lk.Origin, lk.Seq
	}
	o.tracer.Add(e)
}

// Activated implements pastry.Observer.
func (o *Overlay) Activated(n *pastry.Node, joinLatency time.Duration) {
	o.joins.Inc()
	o.joinLatency.Observe(joinLatency.Seconds())
	o.record(n, KindActivated, "", nil, pastry.NodeRef{}, int64(joinLatency))
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
	o.record(n, KindDelivered, "", lk, pastry.NodeRef{}, int64(lk.Hops))
	if o.opts.Inner != nil {
		o.opts.Inner.Delivered(n, lk)
	}
}

// LookupDropped implements pastry.Observer.
func (o *Overlay) LookupDropped(n *pastry.Node, lk *pastry.Lookup, reason pastry.DropReason) {
	o.dropped.With(reason.String()).Inc()
	o.record(n, KindDropped, reason.String(), lk, pastry.NodeRef{}, int64(lk.Hops))
	if o.opts.Inner != nil {
		o.opts.Inner.LookupDropped(n, lk, reason)
	}
}

// LookupIssued implements pastry.TraceObserver.
func (o *Overlay) LookupIssued(n *pastry.Node, lk *pastry.Lookup) {
	o.issued.Inc()
	o.record(n, KindIssued, "", lk, pastry.NodeRef{}, 0)
}

// LookupHop implements pastry.TraceObserver.
func (o *Overlay) LookupHop(n *pastry.Node, lk *pastry.Lookup, to pastry.NodeRef, cause pastry.HopCause) {
	o.record(n, KindHop, cause.String(), lk, to, int64(lk.Hops))
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
	o.record(n, KindAckRTT, "", nil, to, int64(rtt))
}

// TrtTuned implements pastry.StatsObserver. It records nothing: the
// mspastry_trt_seconds gauge is set where a whole run's or node's Trt is
// known (the harness's end-of-run median, mspastry-node's scrape hook).
func (o *Overlay) TrtTuned(n *pastry.Node, trt time.Duration) {}

// LeafSetRepair implements pastry.StatsObserver.
func (o *Overlay) LeafSetRepair(n *pastry.Node, cause string) {
	o.repairs.With(cause).Inc()
	o.record(n, KindLeafSet, cause, nil, pastry.NodeRef{}, 0)
}
