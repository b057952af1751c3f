package telemetry

import (
	"fmt"
	"testing"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/pastry"
)

func ref(i int) pastry.NodeRef {
	return pastry.NodeRef{ID: id.FromKey(fmt.Sprint("node", i)), Addr: fmt.Sprintf("10.0.0.%d:1", i)}
}

// lookupEvents records the events Overlay records for one lookup with the
// given trace identifier, issued by origin.
type lookupEvents struct {
	tr      *Tracer
	traceID uint64
	origin  pastry.NodeRef
}

func (l lookupEvents) add(at time.Duration, node pastry.NodeRef, kind Kind, cause string, peer pastry.NodeRef) {
	l.tr.Add(Event{At: at, Node: node, Kind: kind, Cause: cause,
		TraceID: l.traceID, Origin: l.origin, Seq: l.traceID, Peer: peer})
}

func (l lookupEvents) issue() { l.add(0, l.origin, KindIssued, "", pastry.NodeRef{}) }

func (l lookupEvents) deliver(at time.Duration, root pastry.NodeRef) {
	l.add(at, root, KindDelivered, "", pastry.NodeRef{})
}

func (l lookupEvents) hop(at time.Duration, from, to pastry.NodeRef, cause pastry.HopCause) {
	l.add(at, from, KindHop, cause.String(), to)
}

// onlyTrace returns the single closed trace of tr's events.
func onlyTrace(t *testing.T, tr *Tracer) []Event {
	t.Helper()
	closed, open := Traces(tr.Recent(0))
	if len(closed) != 1 || open != 0 {
		t.Fatalf("closed = %d, open = %d; want one closed trace", len(closed), open)
	}
	return closed[0]
}

func TestPathStraightLine(t *testing.T) {
	tr := NewTracer(0)
	o, a, b := ref(0), ref(1), ref(2)
	lk := lookupEvents{tr, 1, o}
	lk.issue()
	lk.hop(10*time.Millisecond, o, a, pastry.HopForward)
	lk.hop(20*time.Millisecond, a, b, pastry.HopForward)
	lk.deliver(30*time.Millisecond, b)

	path, ok := Path(onlyTrace(t, tr))
	if !ok || len(path) != 3 {
		t.Fatalf("path = %v ok=%v", path, ok)
	}
	if s := tr.Stats(); s.Delivered != 1 || s.Reconstructed != 1 || s.Outstanding != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// A timed-out branch that was rerouted around must not appear in the
// reconstructed path: A forwards to B, gets no ack, and reroutes to C,
// which delivers. The path is O -> A -> C.
func TestPathSkipsReroutedBranch(t *testing.T) {
	tr := NewTracer(0)
	o, a, b, c := ref(0), ref(1), ref(2), ref(3)
	lk := lookupEvents{tr, 2, o}
	lk.issue()
	lk.hop(1*time.Millisecond, o, a, pastry.HopForward)
	lk.hop(2*time.Millisecond, a, b, pastry.HopForward)
	lk.hop(5*time.Millisecond, a, c, pastry.HopReroute)
	lk.deliver(6*time.Millisecond, c)

	path, ok := Path(onlyTrace(t, tr))
	if !ok {
		t.Fatalf("path incomplete: %v", path)
	}
	want := []pastry.NodeRef{o, a, c}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i].ID != want[i].ID {
			t.Fatalf("path[%d] = %v, want %v", i, path[i].ID, want[i].ID)
		}
	}
	if b.ID == path[1].ID {
		t.Fatal("dead branch in path")
	}
}

// Backoff retransmissions to the same hop collapse into one link.
func TestPathCollapsesBackoffs(t *testing.T) {
	tr := NewTracer(0)
	o, a := ref(0), ref(1)
	lk := lookupEvents{tr, 3, o}
	lk.issue()
	lk.hop(1*time.Millisecond, o, a, pastry.HopForward)
	lk.hop(40*time.Millisecond, o, a, pastry.HopBackoff)
	lk.deliver(41*time.Millisecond, a)

	path, ok := Path(onlyTrace(t, tr))
	if !ok || len(path) != 2 {
		t.Fatalf("path = %v ok=%v", path, ok)
	}
}

// Records that form a forwarding loop are reported as not reconstructable
// rather than looping forever.
func TestPathDetectsLoop(t *testing.T) {
	tr := NewTracer(0)
	o, a := ref(0), ref(1)
	lk := lookupEvents{tr, 4, o}
	lk.issue()
	lk.hop(1*time.Millisecond, o, a, pastry.HopForward)
	lk.hop(2*time.Millisecond, a, o, pastry.HopForward)
	lk.add(3*time.Millisecond, o, KindDropped, pastry.DropTTL.String(), pastry.NodeRef{})

	if _, ok := Path(onlyTrace(t, tr)); ok {
		t.Fatal("looped records must not reconstruct")
	}
	if s := tr.Stats(); s.Dropped != 1 || s.Delivered != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// A trace closes at its first delivered or dropped event: a duplicate
// delivery and hops after it are not part of it, and a lookup whose issue
// the events do not hold opens no trace.
func TestTraceClosesAtFirstDelivery(t *testing.T) {
	tr := NewTracer(0)
	o, a, b := ref(0), ref(1), ref(2)
	lk := lookupEvents{tr, 5, o}
	lk.issue()
	lk.hop(1*time.Millisecond, o, a, pastry.HopForward)
	lk.deliver(2*time.Millisecond, a)
	lk.hop(3*time.Millisecond, o, b, pastry.HopReroute)
	lk.deliver(4*time.Millisecond, b)
	unissued := lookupEvents{tr, 6, o}
	unissued.hop(5*time.Millisecond, o, a, pastry.HopForward)
	unissued.deliver(6*time.Millisecond, a)

	if got := onlyTrace(t, tr); len(got) != 3 || got[2].Node.ID != a.ID {
		t.Fatalf("trace = %v", got)
	}
	if s := tr.Stats(); s.Delivered != 1 || s.Reconstructed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// A bounded ring keeps the newest events, oldest first, and reconstructs
// only what it still holds: a lookup whose issue was evicted is not a
// trace, and one issued but not yet closed is outstanding.
func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4)
	o, a := ref(0), ref(1)
	for i := 1; i <= 3; i++ {
		lk := lookupEvents{tr, uint64(i), o}
		lk.issue()
		lk.hop(time.Millisecond, o, a, pastry.HopForward)
		lk.deliver(2*time.Millisecond, a)
	}
	lookupEvents{tr, 4, o}.issue()
	events := tr.Recent(0)
	if len(events) != 4 {
		t.Fatalf("ring kept %d, want 4", len(events))
	}
	if events[0].TraceID != 3 || events[0].Kind != KindIssued || events[3].TraceID != 4 {
		t.Fatalf("ring = %v", events)
	}
	if s := tr.Stats(); s.Delivered != 1 || s.Reconstructed != 1 || s.Outstanding != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if recent := tr.Recent(2); len(recent) != 2 || recent[0].Kind != KindDelivered || recent[1].TraceID != 4 {
		t.Fatalf("recent = %v", recent)
	}
}

// Untraced lookups (TraceID zero, e.g. from a peer running with tracing
// off) are recorded but open no trace.
func TestUntracedLookupIgnored(t *testing.T) {
	tr := NewTracer(0)
	o, a := ref(0), ref(1)
	lk := lookupEvents{tr, 0, o}
	lk.issue()
	lk.hop(time.Millisecond, o, a, pastry.HopForward)
	lk.deliver(2*time.Millisecond, a)
	if s := tr.Stats(); s.Delivered != 0 || s.Outstanding != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if n := len(tr.Recent(0)); n != 3 {
		t.Fatalf("recorded %d events, want 3", n)
	}
}

// Each kind renders as one line: time node event origin/seq peer detail.
func TestEventString(t *testing.T) {
	o, a := ref(0), ref(1)
	for _, c := range []struct {
		e    Event
		want string
	}{
		{Event{At: 5, Node: o, Kind: KindActivated, Detail: int64(1500 * time.Millisecond)}, "5 10.0.0.0:1 activated - - 1.5s"},
		{Event{At: 6, Node: o, Kind: KindIssued, Origin: o, Seq: 7}, "6 10.0.0.0:1 issued 10.0.0.0:1/7 - -"},
		{Event{At: 7, Node: o, Kind: KindHop, Cause: "reroute", Origin: o, Seq: 7, Peer: a, Detail: 1}, "7 10.0.0.0:1 hop-reroute 10.0.0.0:1/7 10.0.0.1:1 1"},
		{Event{At: 8, Node: a, Kind: KindDelivered, Origin: o, Seq: 7, Detail: 2}, "8 10.0.0.1:1 delivered 10.0.0.0:1/7 - 2"},
		{Event{At: 9, Node: a, Kind: KindDropped, Cause: "held", Origin: o, Seq: 8, Detail: 0}, "9 10.0.0.1:1 dropped-held 10.0.0.0:1/8 - 0"},
		{Event{At: 10, Node: o, Kind: KindAckRTT, Peer: a, Detail: int64(3 * time.Millisecond)}, "10 10.0.0.0:1 ackrtt - 10.0.0.1:1 3ms"},
		{Event{At: 11, Node: o, Kind: KindLeafSet, Cause: "announce"}, "11 10.0.0.0:1 leafset-announce - - -"},
		{Event{At: 12, Node: o, Kind: KindSent, Cause: "ack", Detail: 1}, "12 10.0.0.0:1 sent - - ack true"},
		{Event{At: 13, Node: o, Kind: KindTrt, Detail: int64(time.Minute)}, "13 10.0.0.0:1 trt - - 1m0s"},
	} {
		if got := c.e.String(); got != c.want {
			t.Errorf("got  %q\nwant %q", got, c.want)
		}
	}
}
