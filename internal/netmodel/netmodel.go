// Package netmodel binds MSPastry nodes to the discrete-event simulator
// and a generated topology: it delivers messages with the topology's
// one-way delay, drops them with a configurable uniform loss probability
// (the paper's network-loss model; congestion is not modelled), and exposes
// traffic hooks for the metrics pipeline.
//
// Every send is one frame, charged its encoded wire-frame size — the same
// framing the UDP transport puts on the socket — so simulated message and
// byte counts are directly comparable to a live node's /metrics.
package netmodel

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/overload"
	"mspastry/internal/pastry"
	"mspastry/internal/topology"
	"mspastry/internal/wire"
)

// FrameInfo describes one frame (datagram) handed to the network, for
// traffic accounting. A frame carries one message.
type FrameInfo struct {
	To pastry.NodeRef
	// Bytes is the encoded frame size: what the simulator charges and what
	// a live transport would write to the socket.
	Bytes int
	// SingleBytes equals Bytes: a message always travels as a frame of
	// its own.
	SingleBytes int
	// Control reports whether the message is control traffic (not a
	// lookup or application payload).
	Control bool
}

// Network is a simulated packet network connecting overlay endpoints.
type Network struct {
	sim      *eventsim.Simulator
	topo     *topology.Network
	lossRate float64
	eps      map[string]*Endpoint
	onSend   func(from *Endpoint, to pastry.NodeRef, m pastry.Message, singleBytes int)
	onFrame  func(from *Endpoint, f FrameInfo)
	faults   *FaultSet
	adv      *Adversary
	// DropsByCause classifies every undelivered message, indexed by
	// DropCause.
	DropsByCause [NumDropCauses]uint64
	// FaultCounts tallies duplication and reordering activity.
	FaultCounts FaultCounters

	// svc bounds per-endpoint processing capacity; the zero value leaves
	// delivery unbounded (byte-for-byte the pre-overload behaviour).
	svc ServiceModel
	// ShedByLane counts messages shed by bounded service queues, by the
	// priority lane the shed message belonged to.
	ShedByLane [overload.NumLanes]uint64

	// free holds fired deliveries for reuse. A plain stack, not a
	// sync.Pool: the simulator is single-threaded and must take the same
	// path on every run. Its high-water mark is the number of frames in
	// flight at once.
	free []*delivery
}

// ServiceModel bounds each endpoint's message-processing capacity: at
// most QueueLimit messages wait in a per-node priority queue (shedding
// lowest-priority-first on overflow; see package overload) and the bound
// node consumes them at Rate messages per second. The zero value
// disables the model entirely — messages deliver the moment they arrive,
// exactly as before the model existed — so overload is opt-in and
// existing experiments reproduce bit-for-bit.
type ServiceModel struct {
	// QueueLimit is the receive-queue bound in messages; <= 0 disables
	// the model.
	QueueLimit int
	// Rate is the processing rate in messages per second; <= 0 disables
	// the model.
	Rate float64
}

func (sm ServiceModel) enabled() bool { return sm.QueueLimit > 0 && sm.Rate > 0 }

// SetServiceModel installs the per-node service-capacity model. Set it
// before traffic starts.
func (nw *Network) SetServiceModel(sm ServiceModel) { nw.svc = sm }

// New creates a network over the given simulator and topology with a
// uniform message loss probability in [0,1).
func New(sim *eventsim.Simulator, topo *topology.Network, lossRate float64) *Network {
	if lossRate < 0 || lossRate >= 1 {
		panic(fmt.Sprintf("netmodel: loss rate %v outside [0,1)", lossRate))
	}
	return &Network{sim: sim, topo: topo, lossRate: lossRate, eps: make(map[string]*Endpoint)}
}

// OnSend registers a hook invoked for every message handed to the network
// (at enqueue, before loss is applied), with the message's single-frame
// encoded size for byte accounting.
func (nw *Network) OnSend(fn func(from *Endpoint, to pastry.NodeRef, m pastry.Message, singleBytes int)) {
	nw.onSend = fn
}

// OnFrame registers a hook invoked for every frame (datagram) the network
// accepts, before loss is applied.
func (nw *Network) OnFrame(fn func(from *Endpoint, f FrameInfo)) {
	nw.onFrame = fn
}

// Endpoint is an attachment point for one overlay node. It implements
// pastry.Env.
type Endpoint struct {
	nw    *Network
	index int
	addr  string
	node  *pastry.Node
	up    bool

	// Service-capacity state (nil/false while the model is disabled):
	// the bounded inbound lane queue and whether a processing slot is
	// scheduled.
	svcQ    *overload.Queue
	svcBusy bool
}

// svcItem is one queued inbound message; to pins the destination
// incarnation so queue-time churn is detected at processing time.
type svcItem struct {
	to pastry.NodeRef
	m  pastry.Message
}

// NewEndpoint wires a new endpoint to topology attachment point index.
// Endpoint addresses are the decimal attachment index.
func (nw *Network) NewEndpoint(index int) *Endpoint {
	addr := strconv.Itoa(index)
	if _, dup := nw.eps[addr]; dup {
		panic("netmodel: endpoint already exists: " + addr)
	}
	ep := &Endpoint{nw: nw, index: index, addr: addr, up: true}
	nw.eps[addr] = ep
	return ep
}

// Endpoint returns the endpoint with the given address, if any.
func (nw *Network) Endpoint(addr string) (*Endpoint, bool) {
	ep, ok := nw.eps[addr]
	return ep, ok
}

// Addr returns the endpoint's transport address.
func (ep *Endpoint) Addr() string { return ep.addr }

// Index returns the topology attachment index.
func (ep *Endpoint) Index() int { return ep.index }

// Node returns the overlay node currently bound to the endpoint.
func (ep *Endpoint) Node() *pastry.Node { return ep.node }

// Bind attaches an overlay node to the endpoint and marks it up. A new
// node instance is bound for every session of a churning endpoint.
func (ep *Endpoint) Bind(n *pastry.Node) {
	ep.node = n
	ep.up = true
}

// Fail crashes the endpoint's node and stops delivery to it. Messages
// still waiting in the service queue die with the node.
func (ep *Endpoint) Fail() {
	ep.up = false
	if ep.node != nil {
		ep.node.Fail()
	}
	if ep.svcQ != nil {
		ep.nw.dropN(DropDeadEndpoint, ep.svcQ.Drain())
	}
}

// Up reports whether the endpoint currently hosts a live node.
func (ep *Endpoint) Up() bool { return ep.up && ep.node != nil }

// Now implements pastry.Env.
func (ep *Endpoint) Now() time.Duration { return ep.nw.sim.Now() }

// Rand implements pastry.Env.
func (ep *Endpoint) Rand() *rand.Rand { return ep.nw.sim.Rand() }

// Schedule implements pastry.Env.
func (ep *Endpoint) Schedule(d time.Duration, fn func()) pastry.Timer {
	return ep.nw.sim.After(d, fn)
}

// Rearm implements pastry.Rearmer: a handle Schedule returned that has
// fired or been cancelled is queued again, d from now (eventsim's Rearm).
func (ep *Endpoint) Rearm(t pastry.Timer, d time.Duration) bool {
	ev, ok := t.(*eventsim.Event)
	return ok && ep.nw.sim.Rearm(ev, d)
}

// Send implements pastry.Env: the message is framed and transmitted
// immediately — traffic hooks, one loss roll, fault rolls, then delivery
// after the topology's one-way delay.
func (ep *Endpoint) Send(to pastry.NodeRef, m pastry.Message) {
	nw := ep.nw
	if nw.adv != nil {
		m = nw.adv.rewriteOutbound(ep, to, m)
	}
	size := wire.SingleSize(pastry.MessageWireSize(m))
	if nw.onSend != nil {
		nw.onSend(ep, to, m, size)
	}
	if nw.onFrame != nil {
		nw.onFrame(ep, FrameInfo{To: to, Bytes: size, SingleBytes: size, Control: wire.Control(m.Category())})
	}
	ep.transmit(to, m)
}

// transmit carries one frame across the network: one loss roll, one fault
// roll and one delay.
func (ep *Endpoint) transmit(to pastry.NodeRef, m pastry.Message) {
	nw := ep.nw
	if nw.lossRate > 0 && nw.sim.Rand().Float64() < nw.lossRate {
		nw.dropN(DropLoss, 1)
		return
	}
	if nw.faults != nil {
		if cause, dropped := nw.faults.dropsMessage(nw.sim.Rand(), ep.addr, to.Addr); dropped {
			nw.dropN(cause, 1)
			return
		}
	}
	dst, ok := nw.eps[to.Addr]
	if !ok {
		nw.dropN(DropUnknownEndpoint, 1)
		return
	}
	delay := nw.topo.Delay(ep.index, dst.index)
	if nw.faults != nil {
		delay = nw.faults.perturbDelay(nw.sim.Rand(), delay)
		if nw.faults.duplicates(nw.sim.Rand()) {
			dup := nw.faults.perturbDelay(nw.sim.Rand(), nw.topo.Delay(ep.index, dst.index))
			nw.deliverAfter(dst, to, m, dup)
		}
	}
	nw.deliverAfter(dst, to, m, delay)
}

// dropN accounts n undelivered messages.
func (nw *Network) dropN(cause DropCause, n int) {
	nw.DropsByCause[cause] += uint64(n)
}

// Drops counts messages lost to injected faults (uniform loss, per-link
// loss, partitions, the adversary): the injected causes' share of
// DropsByCause.
func (nw *Network) Drops() uint64 {
	var n uint64
	for c, d := range nw.DropsByCause {
		if DropCause(c).injected() {
			n += d
		}
	}
	return n
}

// delivery is one frame in flight: the eventsim.Handler that hands it to
// the destination at arrival time. Nothing outside the event queue holds a
// delivery — it cannot be cancelled — so a fired one goes back to the
// network's free list and a frame in flight costs no allocation.
type delivery struct {
	dst *Endpoint
	to  pastry.NodeRef
	m   pastry.Message
}

// deliverAfter schedules one delivery attempt for a frame; destination
// liveness and identity are re-checked at delivery time.
func (nw *Network) deliverAfter(dst *Endpoint, to pastry.NodeRef, m pastry.Message, delay time.Duration) {
	var d *delivery
	if last := len(nw.free) - 1; last >= 0 {
		d, nw.free = nw.free[last], nw.free[:last]
	} else {
		d = new(delivery)
	}
	*d = delivery{dst: dst, to: to, m: m}
	nw.sim.Schedule(nw.sim.Now()+delay, d)
}

// Fire implements eventsim.Handler. The frame is copied out and the struct
// parked, zeroed, before the message is handed over: a receiver that sends
// from inside Receive may take this very struct for its own frame, and a
// parked delivery must not keep the message it carried alive.
func (d *delivery) Fire() {
	f := *d
	dst, to, nw := f.dst, f.to, f.dst.nw
	*d = delivery{}
	nw.free = append(nw.free, d)
	if !dst.up || dst.node == nil {
		nw.dropN(DropDeadEndpoint, 1)
		return
	}
	if dst.node.Ref().ID != to.ID {
		// The endpoint was reincarnated with a new identity; the
		// frame was addressed to the dead instance.
		nw.dropN(DropStaleIdentity, 1)
		return
	}
	dst.accept(to, f.m)
}

// accept hands one arrived message to the destination node: immediately
// when the service model is off, through the bounded priority queue and
// the node's processing rate when it is on.
func (ep *Endpoint) accept(to pastry.NodeRef, m pastry.Message) {
	nw := ep.nw
	if !nw.svc.enabled() {
		ep.deliverToNode(m)
		return
	}
	if ep.svcQ == nil {
		ep.svcQ = overload.NewQueue(nw.svc.QueueLimit)
	}
	if shed := ep.svcQ.Push(pastry.LaneOf(m), svcItem{to: to, m: m}); shed >= 0 {
		nw.ShedByLane[shed]++
		nw.dropN(DropOverload, 1)
	}
	ep.startService()
}

// startService arms the next processing slot if work is queued and none
// is scheduled. Each message occupies the node for 1/Rate seconds.
func (ep *Endpoint) startService() {
	if ep.svcBusy || ep.svcQ == nil || ep.svcQ.Len() == 0 {
		return
	}
	ep.svcBusy = true
	interval := time.Duration(float64(time.Second) / ep.nw.svc.Rate)
	ep.nw.sim.After(interval, ep.serviceOne)
}

// serviceOne completes one processing slot: the highest-priority queued
// message is delivered (churn between queueing and processing is
// re-checked) and the next slot is armed if work remains.
func (ep *Endpoint) serviceOne() {
	ep.svcBusy = false
	if ep.svcQ == nil {
		return
	}
	v, _, ok := ep.svcQ.Pop()
	if !ok {
		return
	}
	it := v.(svcItem)
	switch {
	case !ep.up || ep.node == nil:
		ep.nw.dropN(DropDeadEndpoint, 1)
	case ep.node.Ref().ID != it.to.ID:
		ep.nw.dropN(DropStaleIdentity, 1)
	default:
		ep.deliverToNode(it.m)
	}
	ep.startService()
}

// deliverToNode hands one arrived message to the bound node, giving a
// configured adversary the chance to consume it first (Byzantine nodes
// attack at delivery, after the network has faithfully carried the
// frame).
func (ep *Endpoint) deliverToNode(m pastry.Message) {
	if adv := ep.nw.adv; adv != nil && adv.interceptInbound(ep, m) {
		return
	}
	ep.node.Receive(copyForDelivery(m))
}

// LoadFactor reports the current service-queue occupancy in [0,1]; 0
// while the service model is disabled.
func (ep *Endpoint) LoadFactor() float64 {
	if ep.svcQ == nil {
		return 0
	}
	return ep.svcQ.LoadFactor()
}

// copyForDelivery clones mutable routed payloads (lookup/join envelopes);
// all other message types are treated as immutable by receivers. A lookup
// envelope's copy is one allocation (pastry.ReceivedCopy); a join
// envelope's also copies its request and the rows each hop extends.
func copyForDelivery(m pastry.Message) pastry.Message {
	env, ok := m.(*pastry.Envelope)
	if !ok {
		return m
	}
	out := pastry.ReceivedCopy(env)
	if env.Join != nil {
		jr := *env.Join
		jr.Rows = append([]pastry.NodeRef(nil), env.Join.Rows...)
		out.Join = &jr
	}
	return out
}
