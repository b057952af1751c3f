package telemetry

import (
	"sync"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/pastry"
)

// HopRecord is one forwarding event of a traced lookup: the node that
// transmitted, the next hop it chose, when (node-local clock; in the
// simulator all nodes share the clock, so consecutive records yield per-hop
// latencies), and why (first route, reroute after a missed ack, or backoff
// retransmission to the same hop).
type HopRecord struct {
	From  pastry.NodeRef `json:"from"`
	To    pastry.NodeRef `json:"to"`
	Index int            `json:"index"` // overlay hop count at transmission
	At    time.Duration  `json:"at"`
	Cause string         `json:"cause"`
	Retx  bool           `json:"retx"`
}

// LookupTrace accumulates everything observed about one traced lookup.
type LookupTrace struct {
	TraceID uint64         `json:"trace_id"`
	Key     id.ID          `json:"key"`
	Origin  pastry.NodeRef `json:"origin"`
	Issued  time.Duration  `json:"issued"`
	Hops    []HopRecord    `json:"hops"`
	// Retx counts reroute and backoff transmissions.
	Retx int `json:"retx"`

	Done      bool           `json:"done"`
	Delivered bool           `json:"delivered"`
	Root      pastry.NodeRef `json:"root,omitempty"`
	DoneAt    time.Duration  `json:"done_at"`
	DropCause string         `json:"drop_cause,omitempty"`
}

// Path reconstructs the route the lookup actually travelled by chaining
// hop records: start at the origin, and at each step follow the
// transmission out of the current node (preferring the one whose
// destination transmitted the next hop, so timed-out branches that were
// rerouted around are not followed). ok reports a complete chain: every
// link connects and, for a delivered lookup, the chain ends at the
// delivering root.
func (t *LookupTrace) Path() (path []pastry.NodeRef, ok bool) {
	byFrom := make(map[id.ID][]HopRecord, len(t.Hops))
	for _, h := range t.Hops {
		byFrom[h.From.ID] = append(byFrom[h.From.ID], h)
	}
	path = []pastry.NodeRef{t.Origin}
	cur := t.Origin
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
			if len(byFrom[ev.To.ID]) > 0 && !visited[ev.To.ID] {
				next = ev
				break
			}
			if t.Delivered && ev.To.ID == t.Root.ID {
				next = ev
			}
		}
		if visited[next.To.ID] {
			return path, false // routing loop in the records: incomplete
		}
		visited[next.To.ID] = true
		path = append(path, next.To)
		cur = next.To
	}
	if !t.Delivered {
		return path, false
	}
	return path, path[len(path)-1].ID == t.Root.ID
}

// Tracer records lookup traces. All methods are safe for concurrent use.
// Completed traces are kept in a bounded ring (capacity <= 0 keeps
// everything, which experiment harnesses use to validate reconstruction).
type Tracer struct {
	mu       sync.Mutex
	capacity int
	active   map[uint64]*LookupTrace
	done     []*LookupTrace
	next     int // ring cursor when at capacity
	total    struct {
		delivered, dropped, reconstructed uint64
	}
}

// NewTracer creates a tracer keeping up to capacity completed traces
// (capacity <= 0 = unbounded).
func NewTracer(capacity int) *Tracer {
	return &Tracer{capacity: capacity, active: make(map[uint64]*LookupTrace)}
}

// Begin opens a trace for a lookup entering the overlay.
func (tr *Tracer) Begin(lk *pastry.Lookup, at time.Duration) {
	if lk.TraceID == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if _, ok := tr.active[lk.TraceID]; ok {
		return
	}
	tr.active[lk.TraceID] = &LookupTrace{
		TraceID: lk.TraceID, Key: lk.Key, Origin: lk.Origin, Issued: at,
	}
}

// Hop records one forwarding transmission.
func (tr *Tracer) Hop(lk *pastry.Lookup, from, to pastry.NodeRef, cause pastry.HopCause, at time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t, ok := tr.active[lk.TraceID]
	if !ok {
		return
	}
	retx := cause != pastry.HopForward
	t.Hops = append(t.Hops, HopRecord{
		From: from, To: to, Index: lk.Hops, At: at, Cause: cause.String(), Retx: retx,
	})
	if retx {
		t.Retx++
	}
}

// Deliver closes a trace as delivered by root.
func (tr *Tracer) Deliver(lk *pastry.Lookup, root pastry.NodeRef, at time.Duration) {
	tr.finish(lk.TraceID, func(t *LookupTrace) {
		t.Delivered = true
		t.Root = root
		t.DoneAt = at
		tr.total.delivered++
		if _, ok := t.Path(); ok {
			tr.total.reconstructed++
		}
	})
}

// Drop closes a trace as dropped for the given protocol reason.
func (tr *Tracer) Drop(lk *pastry.Lookup, reason pastry.DropReason, at time.Duration) {
	tr.finish(lk.TraceID, func(t *LookupTrace) {
		t.DropCause = reason.String()
		t.DoneAt = at
		tr.total.dropped++
	})
}

func (tr *Tracer) finish(traceID uint64, fn func(*LookupTrace)) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t, ok := tr.active[traceID]
	if !ok {
		return
	}
	delete(tr.active, traceID)
	t.Done = true
	fn(t)
	if tr.capacity > 0 && len(tr.done) >= tr.capacity {
		tr.done[tr.next] = t
		tr.next = (tr.next + 1) % tr.capacity
		return
	}
	tr.done = append(tr.done, t)
}

// Recent returns up to n of the most recently completed traces.
func (tr *Tracer) Recent(n int) []*LookupTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n <= 0 || n > len(tr.done) {
		n = len(tr.done)
	}
	out := make([]*LookupTrace, 0, n)
	// The ring cursor points at the oldest entry once wrapped.
	start := 0
	if tr.capacity > 0 && len(tr.done) == tr.capacity {
		start = tr.next
	}
	for i := 0; i < n; i++ {
		idx := (start + len(tr.done) - n + i) % len(tr.done)
		out = append(out, tr.done[idx])
	}
	return out
}

// TraceStats summarises a tracer's lifetime totals.
type TraceStats struct {
	Delivered     uint64 `json:"delivered"`
	Dropped       uint64 `json:"dropped"`
	Reconstructed uint64 `json:"reconstructed"`
	// Outstanding is the number of traces still open.
	Outstanding int `json:"outstanding"`
}

// ReconstructionRate is the fraction of delivered lookups whose full route
// path chains completely (the acceptance metric for hop tracing).
func (s TraceStats) ReconstructionRate() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.Reconstructed) / float64(s.Delivered)
}

// Stats returns lifetime totals (counted over all traces, including ones
// evicted from the ring).
func (tr *Tracer) Stats() TraceStats {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return TraceStats{
		Delivered:     tr.total.delivered,
		Dropped:       tr.total.dropped,
		Reconstructed: tr.total.reconstructed,
		Outstanding:   len(tr.active),
	}
}
