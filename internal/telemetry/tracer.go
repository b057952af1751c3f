package telemetry

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/pastry"
)

// Kind names what an event records: one kind per observer call.
type Kind string

const (
	KindActivated Kind = "activated" // Detail: join latency
	KindIssued    Kind = "issued"    // the lookup entered the overlay here
	KindHop       Kind = "hop"       // Cause: the HopCause; Peer: next hop; Detail: hops so far
	KindDelivered Kind = "delivered" // delivered here as root; Detail: hops
	KindDropped   Kind = "dropped"   // Cause: the DropReason; Detail: hops
	KindAckRTT    Kind = "ackrtt"    // Peer: the acking hop; Detail: round trip
	KindLeafSet   Kind = "leafset"   // Cause: why a leaf-set repair started
	// KindSent (Cause: the message category; Detail: 1 for a
	// retransmission) and KindTrt (Detail: the new Trt) complete the
	// vocabulary, but Overlay does not record them: they fire once per
	// message and once per tick and would flush a bounded ring in under a
	// second.
	KindSent Kind = "sent"
	KindTrt  Kind = "trt"
)

// Event is one observer call on one node, at that node's clock (in the
// simulator all nodes share the clock). Lookup events carry the lookup's
// TraceID, origin and sequence number, which is what ties one lookup's
// events on different nodes together.
type Event struct {
	At      time.Duration  `json:"at_ns"`
	Node    pastry.NodeRef `json:"node"`
	Kind    Kind           `json:"kind"`
	Cause   string         `json:"cause,omitempty"`
	TraceID uint64         `json:"trace_id,omitempty"`
	Origin  pastry.NodeRef `json:"origin"`
	Seq     uint64         `json:"seq,omitempty"`
	Peer    pastry.NodeRef `json:"peer"`
	// Detail is a hop count or a duration in nanoseconds, by Kind.
	Detail int64 `json:"detail"`
}

// String renders the event as one line: time node event origin/seq peer
// detail, with "-" for what the kind does not carry.
func (e Event) String() string {
	name, lookup, peer, detail := string(e.Kind), "-", "-", "-"
	switch e.Kind {
	case KindHop, KindDropped, KindLeafSet:
		name += "-" + e.Cause
	}
	switch e.Kind {
	case KindIssued, KindHop, KindDelivered, KindDropped:
		lookup = e.Origin.Addr + "/" + strconv.FormatUint(e.Seq, 10)
	}
	if !e.Peer.IsZero() {
		peer = e.Peer.Addr
	}
	switch e.Kind {
	case KindActivated, KindAckRTT, KindTrt:
		detail = time.Duration(e.Detail).String()
	case KindHop, KindDelivered, KindDropped:
		detail = strconv.FormatInt(e.Detail, 10)
	case KindSent:
		detail = e.Cause + " " + strconv.FormatBool(e.Detail != 0)
	}
	return fmt.Sprintf("%d %s %s %s %s %s", int64(e.At), e.Node.Addr, name, lookup, peer, detail)
}

// Tracer is a node's flight recorder: a ring of its most recent events.
// All methods are safe for concurrent use.
type Tracer struct {
	mu       sync.Mutex
	capacity int
	events   []Event
	next     int // ring cursor (the oldest event) once at capacity
}

// NewTracer creates a tracer keeping the last capacity events (capacity
// <= 0 keeps every event, which experiment harnesses use to validate
// reconstruction).
func NewTracer(capacity int) *Tracer {
	return &Tracer{capacity: capacity}
}

// Add records one event, evicting the oldest when the ring is full.
func (tr *Tracer) Add(e Event) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.capacity > 0 && len(tr.events) == tr.capacity {
		tr.events[tr.next] = e
		tr.next = (tr.next + 1) % tr.capacity
		return
	}
	tr.events = append(tr.events, e)
}

// Recent returns up to n of the most recent events, oldest first (n <= 0
// returns them all).
func (tr *Tracer) Recent(n int) []Event {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n <= 0 || n > len(tr.events) {
		n = len(tr.events)
	}
	out := make([]Event, n)
	for i := range out {
		out[i] = tr.events[(tr.next+len(tr.events)-n+i)%len(tr.events)]
	}
	return out
}

// Traces groups events by lookup. A trace opens at the lookup's issued
// event, collects its hop events and closes at its first delivered or
// dropped event; events of a lookup not open are ignored, as are
// untraced lookups (TraceID zero). closed holds the closed traces in
// closing order; open counts those never closed.
func Traces(events []Event) (closed [][]Event, open int) {
	active := make(map[uint64][]Event)
	for _, e := range events {
		if e.TraceID == 0 {
			continue
		}
		t, ok := active[e.TraceID]
		switch {
		case e.Kind == KindIssued && !ok:
			active[e.TraceID] = []Event{e}
		case ok && e.Kind == KindHop:
			active[e.TraceID] = append(t, e)
		case ok && (e.Kind == KindDelivered || e.Kind == KindDropped):
			closed = append(closed, append(t, e))
			delete(active, e.TraceID)
		}
	}
	return closed, len(active)
}

// Path reconstructs the route a closed trace actually travelled by
// chaining its hop events: start at the origin, and at each step follow
// the transmission out of the current node (preferring the one whose
// destination transmitted the next hop, so timed-out branches that were
// rerouted around are not followed). ok reports a complete chain: every
// link connects and the lookup was delivered at the chain's end.
func Path(trace []Event) (path []pastry.NodeRef, ok bool) {
	last := trace[len(trace)-1]
	delivered := last.Kind == KindDelivered
	byFrom := make(map[id.ID][]Event, len(trace))
	for _, e := range trace {
		if e.Kind == KindHop {
			byFrom[e.Node.ID] = append(byFrom[e.Node.ID], e)
		}
	}
	cur := trace[0].Origin
	path = []pastry.NodeRef{cur}
	visited := map[id.ID]bool{cur.ID: true}
	for {
		evs := byFrom[cur.ID]
		if len(evs) == 0 {
			break
		}
		// Prefer the transmission whose destination itself forwarded (it
		// was received); otherwise the one that reached the root; otherwise
		// the last transmission (latest reroute wins).
		next := evs[len(evs)-1]
		for _, ev := range evs {
			if len(byFrom[ev.Peer.ID]) > 0 && !visited[ev.Peer.ID] {
				next = ev
				break
			}
			if delivered && ev.Peer.ID == last.Node.ID {
				next = ev
			}
		}
		if visited[next.Peer.ID] {
			return path, false // routing loop in the records: incomplete
		}
		visited[next.Peer.ID] = true
		path = append(path, next.Peer)
		cur = next.Peer
	}
	return path, delivered && cur.ID == last.Node.ID
}

// TraceStats summarises the traces in a tracer's events.
type TraceStats struct {
	Delivered     uint64
	Dropped       uint64
	Reconstructed uint64
	// Outstanding is the number of traces still open.
	Outstanding int
}

// ReconstructionRate is the fraction of delivered lookups whose full route
// path chains completely (the acceptance metric for hop tracing).
func (s TraceStats) ReconstructionRate() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.Reconstructed) / float64(s.Delivered)
}

// Stats reconstructs the traces of the events the tracer holds.
func (tr *Tracer) Stats() TraceStats {
	closed, open := Traces(tr.Recent(0))
	s := TraceStats{Outstanding: open}
	for _, t := range closed {
		if t[len(t)-1].Kind == KindDropped {
			s.Dropped++
			continue
		}
		s.Delivered++
		if _, ok := Path(t); ok {
			s.Reconstructed++
		}
	}
	return s
}
