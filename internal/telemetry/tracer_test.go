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

func newLookup(traceID uint64, origin pastry.NodeRef) *pastry.Lookup {
	return &pastry.Lookup{TraceID: traceID, Key: id.FromKey("k"), Origin: origin}
}

func TestPathStraightLine(t *testing.T) {
	tr := NewTracer(0)
	o, a, b := ref(0), ref(1), ref(2)
	lk := newLookup(1, o)
	tr.Begin(lk, 0)
	tr.Hop(lk, o, a, pastry.HopForward, 10*time.Millisecond)
	tr.Hop(lk, a, b, pastry.HopForward, 20*time.Millisecond)
	tr.Deliver(lk, b, 30*time.Millisecond)

	done := tr.Recent(0)
	if len(done) != 1 {
		t.Fatalf("completed = %d", len(done))
	}
	path, ok := done[0].Path()
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
	lk := newLookup(2, o)
	tr.Begin(lk, 0)
	tr.Hop(lk, o, a, pastry.HopForward, 1*time.Millisecond)
	tr.Hop(lk, a, b, pastry.HopForward, 2*time.Millisecond)
	tr.Hop(lk, a, c, pastry.HopReroute, 5*time.Millisecond)
	tr.Deliver(lk, c, 6*time.Millisecond)

	done := tr.Recent(0)[0]
	if done.Retx != 1 {
		t.Fatalf("retx = %d, want 1 (the reroute)", done.Retx)
	}
	path, ok := done.Path()
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
	lk := newLookup(3, o)
	tr.Begin(lk, 0)
	tr.Hop(lk, o, a, pastry.HopForward, 1*time.Millisecond)
	tr.Hop(lk, o, a, pastry.HopBackoff, 40*time.Millisecond)
	tr.Deliver(lk, a, 41*time.Millisecond)

	done := tr.Recent(0)[0]
	path, ok := done.Path()
	if !ok || len(path) != 2 {
		t.Fatalf("path = %v ok=%v", path, ok)
	}
	if done.Retx != 1 {
		t.Fatalf("retx = %d", done.Retx)
	}
}

// Records that form a forwarding loop are reported as not reconstructable
// rather than looping forever.
func TestPathDetectsLoop(t *testing.T) {
	tr := NewTracer(0)
	o, a := ref(0), ref(1)
	lk := newLookup(4, o)
	tr.Begin(lk, 0)
	tr.Hop(lk, o, a, pastry.HopForward, 1*time.Millisecond)
	tr.Hop(lk, a, o, pastry.HopForward, 2*time.Millisecond)
	tr.Drop(lk, pastry.DropTTL, 3*time.Millisecond)

	done := tr.Recent(0)[0]
	if _, ok := done.Path(); ok {
		t.Fatal("looped records must not reconstruct")
	}
	if s := tr.Stats(); s.Dropped != 1 || s.Delivered != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(2)
	o, a := ref(0), ref(1)
	for i := 1; i <= 3; i++ {
		lk := newLookup(uint64(i), o)
		tr.Begin(lk, 0)
		tr.Hop(lk, o, a, pastry.HopForward, time.Millisecond)
		tr.Deliver(lk, a, 2*time.Millisecond)
	}
	if got := len(tr.Recent(0)); got != 2 {
		t.Fatalf("ring kept %d, want 2", got)
	}
	if s := tr.Stats(); s.Delivered != 3 || s.Reconstructed != 3 {
		t.Fatalf("lifetime stats must survive eviction: %+v", s)
	}
	recent := tr.Recent(1)
	if len(recent) != 1 || recent[0].TraceID != 3 {
		t.Fatalf("recent = %+v", recent)
	}
}

// Untraced lookups (TraceID zero, e.g. from a peer running with tracing
// off) are ignored without opening a trace.
func TestUntracedLookupIgnored(t *testing.T) {
	tr := NewTracer(0)
	o, a := ref(0), ref(1)
	lk := newLookup(0, o)
	tr.Begin(lk, 0)
	tr.Hop(lk, o, a, pastry.HopForward, time.Millisecond)
	tr.Deliver(lk, a, 2*time.Millisecond)
	if s := tr.Stats(); s.Delivered != 0 || s.Outstanding != 0 {
		t.Fatalf("stats = %+v", s)
	}
}
