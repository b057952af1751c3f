// Package pastry implements MSPastry: a Pastry structured overlay with the
// dependability and performance techniques of Castro, Costa and Rowstron,
// "Performance and dependability of structured peer-to-peer overlays"
// (DSN 2004): consistent routing via leaf-set probing, reliable routing via
// per-hop acks and active probing, self-tuned probing periods, structured
// failure detection, probe suppression, and low-overhead proximity
// neighbour selection.
//
// A Node is driven entirely by an Env (clock, timers, message transport),
// so the same protocol code runs in the discrete-event simulator and over
// real UDP sockets, mirroring the paper's "the code that runs in the
// simulator and in the real deployment is the same" property.
package pastry

import (
	"fmt"
	"time"

	"mspastry/internal/id"
)

// NodeRef identifies a node: its ring identifier plus a transport address.
type NodeRef struct {
	ID   id.ID
	Addr string
}

// IsZero reports whether the reference is unset.
func (r NodeRef) IsZero() bool { return r.ID.IsZero() && r.Addr == "" }

func (r NodeRef) String() string { return fmt.Sprintf("%s@%s", r.ID, r.Addr) }

// Category classifies control traffic the way the paper's Figure 4 does.
type Category int

const (
	// CatLookup is application lookup traffic (not control traffic).
	CatLookup Category = iota + 1
	// CatJoin covers join requests/replies and nearest-neighbour queries.
	CatJoin
	// CatDistance covers PNS distance probes, replies and symmetric reports.
	CatDistance
	// CatLeafSet covers leaf-set heartbeats and probes.
	CatLeafSet
	// CatRTProbe covers routing-table liveness probes and maintenance.
	CatRTProbe
	// CatAck covers per-hop acks and retransmissions.
	CatAck
	// CatApp is direct application traffic (for example Squirrel
	// responses); like lookups it is not control traffic.
	CatApp
)

// CategoryCount is the number of categories plus one (categories are
// 1-based), sized for dense per-category arrays.
const CategoryCount = int(CatApp) + 1

var categories = [CategoryCount]string{CatLookup: "lookup", CatJoin: "join", CatDistance: "distance",
	CatLeafSet: "leafset", CatRTProbe: "rtprobe", CatAck: "ack", CatApp: "app"}

func (c Category) String() string {
	if c < CatLookup || int(c) >= len(categories) {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categories[c]
}

// Message is anything a node can send to another node.
type Message interface {
	// Category classifies the message for control-traffic accounting.
	Category() Category
}

// routed messages travel hop by hop through the overlay inside an Envelope.

// Lookup is an application lookup routed to the root of Key.
type Lookup struct {
	Key    id.ID
	Seq    uint64
	Origin NodeRef
	// TraceID identifies the lookup end to end for hop tracing: it is
	// carried across hops so every forwarding node's trace events can be
	// reassembled into the full route path. Derived deterministically
	// from (origin, seq, issue time), so tracing never perturbs the
	// seeded random streams of a simulation.
	TraceID uint64
	// Issued is the origin's clock when the lookup entered the overlay,
	// used by the metrics pipeline to compute delay.
	Issued time.Duration
	Hops   int
	// NoAck disables per-hop acknowledgements for this message
	// (applications that do not need reliable routing set it).
	NoAck bool
	// Payload is opaque application data (used by Squirrel and the DHT).
	Payload []byte
	// spareEnv is an envelope this node may send the lookup on once: the
	// one it arrived in, or the one Node.Lookup built beside it.
	// hopEnvelope takes it, and only while its Lookup points at this very
	// Lookup, so a value copy never writes its original's envelope.
	spareEnv *Envelope
}

// Category implements Message.
func (*Lookup) Category() Category { return CatLookup }

// JoinRequest is routed towards the joining node's identifier. Nodes along
// the route append their routing-table rows.
type JoinRequest struct {
	Joiner NodeRef
	Rows   []NodeRef
	Hops   int
}

// Category implements Message.
func (*JoinRequest) Category() Category { return CatJoin }

// JoinReply carries the accumulated routing rows and the root's leaf set
// back to the joining node.
type JoinReply struct {
	Rows   []NodeRef
	Leaves []NodeRef
}

// Category implements Message.
func (*JoinReply) Category() Category { return CatJoin }

// Envelope is one overlay hop of a routed message, carrying the per-hop
// acknowledgement transfer identifier.
type Envelope struct {
	Xfer    uint64
	NeedAck bool
	// Retx marks retransmissions so they are accounted as control traffic.
	Retx    bool
	From    NodeRef
	Lookup  *Lookup
	Join    *JoinRequest
	TrtHint time.Duration
	// spareAck is the Ack a received envelope's receiver owes, inline in
	// the same allocation; handleEnvelope takes it once.
	spareAck *Ack
}

// received is the receive side's layout of an envelope: the envelope, the
// Lookup it carries and the Ack its receiver owes in one allocation, with
// Envelope.Lookup pointing at lk while a lookup is present. A received
// envelope belongs to its receiver alone, so nothing else aliases lk. Once
// the ack is built the envelope is dead to the receiver, so the lookup's
// first hop onwards goes out in it (lk.spareEnv): written once, then sent.
type received struct {
	Envelope
	lk  Lookup
	ack Ack
}

// newReceived returns an empty received envelope whose Lookup is its own
// inline lk, for the decoder to fill or clear.
func newReceived() *Envelope {
	r := new(received)
	r.Lookup, r.lk.spareEnv, r.spareAck = &r.lk, &r.Envelope, &r.ack
	return &r.Envelope
}

// ReceivedCopy returns a copy of env as a receiver holds it: env's
// fields, a copy of its Lookup and the receiver's Ack in one allocation.
// The Join part, if any, is shared with env; a caller that hands the copy
// to a node that extends the join route copies it too.
func ReceivedCopy(env *Envelope) *Envelope {
	r := &received{Envelope: *env}
	r.spareAck = &r.ack
	if env.Lookup != nil {
		r.lk = *env.Lookup
		r.Lookup, r.lk.spareEnv = &r.lk, &r.Envelope
	}
	return &r.Envelope
}

// Category implements Message.
func (e *Envelope) Category() Category {
	switch {
	case e.Retx:
		return CatAck
	case e.Lookup != nil:
		return CatLookup
	default:
		return CatJoin
	}
}

// Ack acknowledges receipt of one Envelope hop.
type Ack struct {
	Xfer    uint64
	From    NodeRef
	TrtHint time.Duration
}

// Category implements Message.
func (*Ack) Category() Category { return CatAck }

// takeSpare returns the message *spare points at — an ack, reply or report
// inline in a received message's allocation — and clears the pointer, so a
// spare is taken once and written once; a new message when there is none.
func takeSpare[T any](spare **T) *T {
	m := *spare
	*spare = nil
	if m == nil {
		m = new(T)
	}
	return m
}

// LSProbe is a leaf-set probe: it carries the sender's leaf set and failed
// set (Figure 2 of the paper).
type LSProbe struct {
	From   NodeRef
	Leaves []NodeRef
	Failed []NodeRef
	// NeedNear asks the responder to include its nearest known nodes to
	// the sender (set while the sender's leaf set is incomplete, i.e.
	// during joins and repair).
	NeedNear bool
	TrtHint  time.Duration
	// spareReply is the reply the probe's receiver owes, inline in the
	// same allocation (lsExchange); handleLSProbe takes it once.
	spareReply *LSProbeReply
}

// Category implements Message.
func (*LSProbe) Category() Category { return CatLeafSet }

// lsExchange is a leaf-set probe's layout: the probe and the reply its
// receiver owes in one allocation. The sender builds it and the decoder's
// factory returns it, so a peer answers a probe, simulated or decoded,
// without allocating. The reply belongs to the receiver alone: it is
// written once, then sent.
type lsExchange struct {
	LSProbe
	reply LSProbeReply
}

// newLSProbe returns an empty leaf-set probe that holds its spare reply.
func newLSProbe() *LSProbe {
	x := new(lsExchange)
	x.spareReply = &x.reply
	return &x.LSProbe
}

// LSProbeReply answers an LSProbe with the same information, plus Near: the
// responder's closest known nodes to the requester, which implements the
// paper's generalised leaf-set repair (repair converges in O(log N) rounds
// even after massive correlated failures).
type LSProbeReply struct {
	From    NodeRef
	Leaves  []NodeRef
	Failed  []NodeRef
	Near    []NodeRef
	TrtHint time.Duration
}

// Category implements Message.
func (*LSProbeReply) Category() Category { return CatLeafSet }

// Heartbeat is the periodic liveness message each node sends to its left
// ring neighbour (paper §4.1, "exploiting overlay structure").
type Heartbeat struct {
	From    NodeRef
	TrtHint time.Duration
}

// Category implements Message.
func (*Heartbeat) Category() Category { return CatLeafSet }

// RTProbe is a liveness probe for a routing-table entry.
type RTProbe struct {
	From    NodeRef
	TrtHint time.Duration
	// spareReply is the reply the probe's receiver owes (rtExchange).
	spareReply *RTProbeReply
}

// Category implements Message.
func (*RTProbe) Category() Category { return CatRTProbe }

// rtExchange is a liveness probe and its receiver's reply in one
// allocation, on lsExchange's terms.
type rtExchange struct {
	RTProbe
	reply RTProbeReply
}

// newRTProbe returns an empty liveness probe that holds its spare reply.
func newRTProbe() *RTProbe {
	x := new(rtExchange)
	x.spareReply = &x.reply
	return &x.RTProbe
}

// RTProbeReply answers an RTProbe.
type RTProbeReply struct {
	From    NodeRef
	TrtHint time.Duration
}

// Category implements Message.
func (*RTProbeReply) Category() Category { return CatRTProbe }

// DistProbe measures round-trip delay for proximity neighbour selection.
type DistProbe struct {
	From NodeRef
	Seq  uint64
	// spareReply is the echo the probe's receiver owes (distExchange).
	spareReply *DistProbeReply
}

// Category implements Message.
func (*DistProbe) Category() Category { return CatDistance }

// DistProbeReply echoes a DistProbe.
type DistProbeReply struct {
	From NodeRef
	Seq  uint64
	// spareReport is the DistReport the prober owes the target once this
	// echo completes the measurement (distReportExchange). Only a
	// session's last probe carries one, and only in its sender's own
	// allocation: a decoded echo has none.
	spareReport *DistReport
}

// Category implements Message.
func (*DistProbeReply) Category() Category { return CatDistance }

// distExchange is a distance probe and its receiver's echo in one
// allocation, on lsExchange's terms.
type distExchange struct {
	DistProbe
	reply DistProbeReply
}

// newDistProbe returns an empty distance probe that holds its spare echo.
func newDistProbe() *DistProbe {
	x := new(distExchange)
	x.spareReply = &x.reply
	return &x.DistProbe
}

// distReportExchange is a session's last distance probe: the probe, its
// echo and, for the prober once the echo is back, the symmetric report,
// in one allocation. The report is the prober's: it is written once, when
// the echo completes the session, then sent.
type distReportExchange struct {
	distExchange
	report DistReport
}

// newLastDistProbe returns an empty distance probe whose spare echo holds
// the spare report.
func newLastDistProbe() *DistProbe {
	x := new(distReportExchange)
	x.spareReply, x.reply.spareReport = &x.reply, &x.report
	return &x.DistProbe
}

// DistReport implements symmetric distance probing: after measuring the
// round-trip delay to a peer, a node reports the value so the peer can
// consider the sender for its own routing table without probing again.
type DistReport struct {
	From NodeRef
	RTT  time.Duration
}

// Category implements Message.
func (*DistReport) Category() Category { return CatDistance }

// RowRequest asks a peer for routing-table row Row (periodic routing-table
// maintenance, every 20 minutes in the paper).
type RowRequest struct {
	From NodeRef
	Row  int
}

// Category implements Message.
func (*RowRequest) Category() Category { return CatRTProbe }

// RowReply returns the entries of the requested row.
type RowReply struct {
	From    NodeRef
	Row     int
	Entries []NodeRef
}

// Category implements Message.
func (*RowReply) Category() Category { return CatRTProbe }

// RowAnnounce is the constrained-gossip announcement a freshly joined node
// sends to every member of each of its routing-table rows.
type RowAnnounce struct {
	From    NodeRef
	Row     int
	Entries []NodeRef
}

// Category implements Message.
func (*RowAnnounce) Category() Category { return CatJoin }

// RepairRequest implements passive routing-table repair: when a routing
// slot is found empty while routing, the next-hop node is asked for any
// entry it has for that slot.
type RepairRequest struct {
	From     NodeRef
	Row, Col int
}

// Category implements Message.
func (*RepairRequest) Category() Category { return CatRTProbe }

// RepairReply answers a RepairRequest with candidate entries.
type RepairReply struct {
	From     NodeRef
	Row, Col int
	Entries  []NodeRef
}

// Category implements Message.
func (*RepairReply) Category() Category { return CatRTProbe }

// NNStateRequest asks a node for its leaf set and routing-table entries;
// the nearest-neighbour algorithm uses it while locating a nearby node to
// seed the join.
type NNStateRequest struct {
	From NodeRef
}

// Category implements Message.
func (*NNStateRequest) Category() Category { return CatJoin }

// AppDirect is a point-to-point application message (not routed through
// the overlay): Squirrel responses, DHT replies and replication.
type AppDirect struct {
	From    NodeRef
	Payload []byte
}

// Category implements Message.
func (*AppDirect) Category() Category { return CatApp }

// NNStateReply returns the node's leaf set and routing-table entries.
type NNStateReply struct {
	From    NodeRef
	Leaves  []NodeRef
	Entries []NodeRef
}

// Category implements Message.
func (*NNStateReply) Category() Category { return CatJoin }

// contact is implemented by every message that names its direct sender:
// Receive notes contact with the sender, and takes its Trt hint, before it
// dispatches. JoinReply names none.
type contact interface {
	sender() (from NodeRef, trtHint time.Duration)
}

func (m *Envelope) sender() (NodeRef, time.Duration)       { return m.From, m.TrtHint }
func (m *Ack) sender() (NodeRef, time.Duration)            { return m.From, m.TrtHint }
func (m *LSProbe) sender() (NodeRef, time.Duration)        { return m.From, m.TrtHint }
func (m *LSProbeReply) sender() (NodeRef, time.Duration)   { return m.From, m.TrtHint }
func (m *Heartbeat) sender() (NodeRef, time.Duration)      { return m.From, m.TrtHint }
func (m *RTProbe) sender() (NodeRef, time.Duration)        { return m.From, m.TrtHint }
func (m *RTProbeReply) sender() (NodeRef, time.Duration)   { return m.From, m.TrtHint }
func (m *DistProbe) sender() (NodeRef, time.Duration)      { return m.From, 0 }
func (m *DistProbeReply) sender() (NodeRef, time.Duration) { return m.From, 0 }
func (m *DistReport) sender() (NodeRef, time.Duration)     { return m.From, 0 }
func (m *RowRequest) sender() (NodeRef, time.Duration)     { return m.From, 0 }
func (m *RowReply) sender() (NodeRef, time.Duration)       { return m.From, 0 }
func (m *RowAnnounce) sender() (NodeRef, time.Duration)    { return m.From, 0 }
func (m *RepairRequest) sender() (NodeRef, time.Duration)  { return m.From, 0 }
func (m *RepairReply) sender() (NodeRef, time.Duration)    { return m.From, 0 }
func (m *NNStateRequest) sender() (NodeRef, time.Duration) { return m.From, 0 }
func (m *NNStateReply) sender() (NodeRef, time.Duration)   { return m.From, 0 }
func (m *AppDirect) sender() (NodeRef, time.Duration)      { return m.From, 0 }
