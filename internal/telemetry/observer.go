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
	m      overlayMetrics
}

// overlayMetrics are the families an Overlay records into (fields
// exported so that Register can set them).
type overlayMetrics struct {
	Issued      *Counter    `metric:"mspastry_lookups_issued_total" help:"Application lookups that entered the overlay at this node."`
	Dropped     *CounterVec `metric:"mspastry_lookups_dropped_total" help:"Lookups dropped by the overlay, by protocol reason." label:"reason"`
	Hops        *Histogram  `metric:"mspastry_lookup_hops" help:"Overlay hops of delivered lookups." buckets:"HopBuckets"`
	Delay       *Histogram  `metric:"mspastry_lookup_delay_seconds" help:"End-to-end delay of delivered lookups (simulator only: requires a shared clock)." buckets:"DefBuckets"`
	Sent        *CounterVec `metric:"mspastry_messages_sent_total" help:"Protocol messages sent, by the paper's Figure 4 traffic category." label:"category"`
	Retx        *Counter    `metric:"mspastry_hop_retransmits_total" help:"Per-hop retransmissions (reroutes and backoffs)."`
	AckRTT      *Histogram  `metric:"mspastry_ack_rtt_seconds" help:"Per-hop ack round-trip samples (first transmissions only, Karn's rule)." buckets:"DefBuckets"`
	Repairs     *CounterVec `metric:"mspastry_leafset_repairs_total" help:"Leaf-set repair probe launches, by cause." label:"cause"`
	JoinLatency *Histogram  `metric:"mspastry_join_latency_seconds" help:"Join latency from first request to activation." buckets:"DefBuckets"`
}

// NewOverlay creates an overlay observer recording into reg and, when
// tracer is non-nil, every call but MessageSent and TrtTuned into tracer.
func NewOverlay(reg *Registry, tracer *Tracer, opts OverlayOptions) *Overlay {
	o := &Overlay{tracer: tracer, opts: opts}
	reg.Register(&o.m)
	return o
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
	o.m.JoinLatency.Observe(joinLatency.Seconds())
	o.record(n, KindActivated, "", nil, pastry.NodeRef{}, int64(joinLatency))
	if o.opts.Inner != nil {
		o.opts.Inner.Activated(n, joinLatency)
	}
}

// Delivered implements pastry.Observer.
func (o *Overlay) Delivered(n *pastry.Node, lk *pastry.Lookup) {
	o.m.Hops.Observe(float64(lk.Hops))
	if o.opts.SharedClock {
		o.m.Delay.Observe((n.Now() - lk.Issued).Seconds())
	}
	o.record(n, KindDelivered, "", lk, pastry.NodeRef{}, int64(lk.Hops))
	if o.opts.Inner != nil {
		o.opts.Inner.Delivered(n, lk)
	}
}

// LookupDropped implements pastry.Observer.
func (o *Overlay) LookupDropped(n *pastry.Node, lk *pastry.Lookup, reason pastry.DropReason) {
	o.m.Dropped.With(reason.String()).Inc()
	o.record(n, KindDropped, reason.String(), lk, pastry.NodeRef{}, int64(lk.Hops))
	if o.opts.Inner != nil {
		o.opts.Inner.LookupDropped(n, lk, reason)
	}
}

// LookupIssued implements pastry.TraceObserver.
func (o *Overlay) LookupIssued(n *pastry.Node, lk *pastry.Lookup) {
	o.m.Issued.Inc()
	o.record(n, KindIssued, "", lk, pastry.NodeRef{}, 0)
}

// LookupHop implements pastry.TraceObserver.
func (o *Overlay) LookupHop(n *pastry.Node, lk *pastry.Lookup, to pastry.NodeRef, cause pastry.HopCause) {
	o.record(n, KindHop, cause.String(), lk, to, int64(lk.Hops))
}

// MessageSent implements pastry.StatsObserver.
func (o *Overlay) MessageSent(n *pastry.Node, cat pastry.Category, retx bool) {
	o.m.Sent.With(cat.String()).Inc()
	if retx {
		o.m.Retx.Inc()
	}
}

// AckRTT implements pastry.StatsObserver.
func (o *Overlay) AckRTT(n *pastry.Node, to pastry.NodeRef, rtt time.Duration) {
	o.m.AckRTT.Observe(rtt.Seconds())
	o.record(n, KindAckRTT, "", nil, to, int64(rtt))
}

// TrtTuned implements pastry.StatsObserver. It records nothing: the Trt
// gauge is set where a whole run's or node's Trt is known (the harness's
// end-of-run median, mspastry-node's scrape hook).
func (o *Overlay) TrtTuned(n *pastry.Node, trt time.Duration) {}

// Trt is the self-tuned routing-table probing period (§4.1) as a gauge,
// for SetGauges: a live node sets its own at every scrape, the simulator
// the median over its active nodes at the end of a run.
type Trt struct {
	Seconds float64 `metric:"mspastry_trt_seconds" help:"Most recent self-tuned routing-table probing period Trt."`
}

// LeafSetRepair implements pastry.StatsObserver.
func (o *Overlay) LeafSetRepair(n *pastry.Node, cause string) {
	o.m.Repairs.With(cause).Inc()
	o.record(n, KindLeafSet, cause, nil, pastry.NodeRef{}, 0)
}
