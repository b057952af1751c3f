package pastry

import (
	"math/rand"
	"time"
)

// Timer is the handle of a callback scheduled with Env.Schedule.
type Timer interface {
	// Cancel, called from the node's serialised context (inside Receive or
	// a callback), guarantees the callback does not run afterwards — also
	// when it was due at this very instant and merely had not run yet. On
	// a timer that has fired, is running or was cancelled before it does
	// nothing. A node reuses a hop or probe record as soon as it has
	// cancelled the record's timer (parkHop, parkProbe); a cancelled timer
	// that fired anyway would time out whatever hop holds the record by
	// then. Every Env has a test of this.
	Cancel()
}

// stop cancels t, a timer that may never have been armed.
func stop(t Timer) {
	if t != nil {
		t.Cancel()
	}
}

// Env supplies a node with everything that differs between the simulator
// and a real deployment: a clock, timers, randomness and a transport. All
// Env callbacks into a node must be serialised (the simulator is
// single-threaded; the UDP transport runs one loop per node).
type Env interface {
	// Now returns the current time (virtual or wall-clock).
	Now() time.Duration
	// Rand returns the node's random source.
	Rand() *rand.Rand
	// Send transmits a message to another node. Delivery is unreliable
	// and unordered, like UDP.
	Send(to NodeRef, m Message)
	// Schedule runs fn after d. The returned timer can be cancelled.
	Schedule(d time.Duration, fn func()) Timer
}

// DropReason explains why a lookup was dropped by the overlay.
type DropReason int

const (
	// DropTTL means the lookup exceeded its hop budget.
	DropTTL DropReason = iota + 1
	// DropRetries means per-hop retransmission gave up.
	DropRetries
	// DropBuffer means a node failed or overflowed while holding the
	// message (for example, it was buffered during a join).
	DropBuffer
	// DropHeld means a node held the message, with a closer node suspected
	// or itself unable to deliver, for longer than the hold bound.
	DropHeld
)

func (d DropReason) String() string {
	switch d {
	case DropTTL:
		return "ttl"
	case DropRetries:
		return "retries"
	case DropBuffer:
		return "buffer"
	case DropHeld:
		return "held"
	default:
		return "unknown"
	}
}

// Observer receives protocol-level events for metrics collection. Methods
// are called synchronously from within protocol processing and must not
// call back into the node.
type Observer interface {
	// Activated fires when the node completes its join and becomes active.
	Activated(n *Node, joinLatency time.Duration)
	// Delivered fires when the node delivers a lookup as the root.
	Delivered(n *Node, lk *Lookup)
	// LookupDropped fires when a node drops a lookup.
	LookupDropped(n *Node, lk *Lookup, reason DropReason)
}

// HopCause classifies why a lookup hop transmission happened.
type HopCause int

const (
	// HopForward is the first transmission of a hop.
	HopForward HopCause = iota
	// HopReroute is a retransmission to an alternative next hop after a
	// missed per-hop ack.
	HopReroute
	// HopBackoff is a backed-off retransmission to the same next hop
	// (no alternative existed, typically because the key's root itself is
	// the suspected node).
	HopBackoff
)

func (c HopCause) String() string {
	switch c {
	case HopForward:
		return "forward"
	case HopReroute:
		return "reroute"
	case HopBackoff:
		return "backoff"
	default:
		return "unknown"
	}
}

// TraceObserver is an optional Observer extension receiving per-lookup
// causal events: issue and every forwarding transmission. Together with
// Delivered/LookupDropped these reconstruct the full route path of a
// lookup from its TraceID. The node detects the extension once, at
// construction.
type TraceObserver interface {
	// LookupIssued fires at the origin when a lookup enters the overlay
	// (before any routing).
	LookupIssued(n *Node, lk *Lookup)
	// LookupHop fires each time a node transmits a lookup one hop further.
	LookupHop(n *Node, lk *Lookup, to NodeRef, cause HopCause)
}

// StatsObserver is an optional Observer extension receiving protocol
// measurements that the plain Observer does not carry: per-category sent
// traffic, per-hop ack RTT samples, self-tuned probing-period updates and
// leaf-set repair activity.
type StatsObserver interface {
	// MessageSent fires for every message the node transmits; retx marks
	// per-hop retransmissions.
	MessageSent(n *Node, cat Category, retx bool)
	// AckRTT fires with each first-transmission per-hop ack round trip
	// (Karn's rule: retransmitted hops contribute no sample).
	AckRTT(n *Node, to NodeRef, rtt time.Duration)
	// TrtTuned fires when self-tuning recomputes the routing-table
	// probing period.
	TrtTuned(n *Node, trt time.Duration)
	// LeafSetRepair fires when the node launches leaf-set repair probes;
	// cause distinguishes repair directions and failure announcements.
	LeafSetRepair(n *Node, cause string)
}

// App is an application running on an overlay node (for example the
// Squirrel web cache or the DHT). All callbacks run in the node's
// serialised context.
type App interface {
	// Deliver is invoked when a lookup reaches this node as its root.
	Deliver(lk *Lookup)
	// Forward is invoked before the node forwards a lookup one hop
	// further. Returning false consumes the message (the DHT uses this to
	// serve a cached read at an intermediate hop).
	Forward(lk *Lookup) bool
	// Direct is invoked for point-to-point application messages.
	Direct(from NodeRef, payload []byte)
}

// NopObserver ignores all events.
type NopObserver struct{}

// Activated implements Observer.
func (NopObserver) Activated(*Node, time.Duration) {}

// Delivered implements Observer.
func (NopObserver) Delivered(*Node, *Lookup) {}

// LookupDropped implements Observer.
func (NopObserver) LookupDropped(*Node, *Lookup, DropReason) {}
