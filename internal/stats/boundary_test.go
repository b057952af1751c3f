package stats

import (
	"math"
	"testing"
	"time"
)

// Lookup outcomes are attributed to the window the lookup was issued in,
// not the window the outcome became known in. A lookup issued late in
// window N whose delivery (or loss timeout) lands in window N+1 must count
// against window N.
func TestOutcomeAttributedToIssueWindow(t *testing.T) {
	c := NewCollector(30*time.Minute, 10*time.Minute)
	c.ActiveChanged(0, +4)

	// Issued at 9m30s (window 0), delivered at 10m30s (window 1).
	issue := 9*time.Minute + 30*time.Second
	c.LookupIssued(issue)
	c.LookupDelivered(issue, true, time.Minute, 30*time.Second, 3)

	// Issued at 9m45s (window 0), lost; the loss is only detected after
	// the delivery timeout, well inside window 1, but is reported against
	// the issue time.
	lostIssue := 9*time.Minute + 45*time.Second
	c.LookupIssued(lostIssue)
	c.LookupLost(lostIssue)

	// Issued exactly on the boundary: t = 10m belongs to window 1.
	c.LookupIssued(10 * time.Minute)
	c.LookupDelivered(10*time.Minute, true, time.Second, time.Second, 1)

	ws := c.Finalize()
	w0, w1 := ws[0], ws[1]
	if w0.Issued != 2 {
		t.Fatalf("window 0 issued = %d, want 2", w0.Issued)
	}
	if got := w0.LossRate(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("window 0 loss rate = %v, want 0.5", got)
	}
	if w0.MeanHops != 3 {
		t.Fatalf("window 0 mean hops = %v, want 3 (delivery must land in issue window)", w0.MeanHops)
	}
	if w1.Issued != 1 || w1.LossRate() != 0 {
		t.Fatalf("window 1 issued=%d loss=%v; boundary lookup belongs to window 1",
			w1.Issued, w1.LossRate())
	}
	if ws[2].Issued != 0 {
		t.Fatalf("window 2 issued = %d, want 0", ws[2].Issued)
	}
}

// When the run length is not a multiple of the window, the final partial
// window still accumulates outcomes for lookups issued in it — including
// outcomes that resolve only after the run's nominal end, which winIndex
// clamps back to the final window.
func TestFinalPartialWindow(t *testing.T) {
	// 25-minute run, 10-minute windows: windows at 0, 10m and a 5-minute
	// partial at 20m.
	c := NewCollector(25*time.Minute, 10*time.Minute)
	c.ActiveChanged(0, +8)

	issue := 24 * time.Minute
	c.LookupIssued(issue)
	c.LookupDelivered(issue, true, 2*time.Second, time.Second, 2)

	lost := 24*time.Minute + 30*time.Second
	c.LookupIssued(lost)
	c.LookupLost(lost)

	// A lookup stamped beyond the run end (delivery callbacks can fire
	// during teardown) clamps into the final window rather than vanishing.
	late := 26 * time.Minute
	c.LookupIssued(late)
	c.LookupLost(late)

	ws := c.Finalize()
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3", len(ws))
	}
	last := ws[2]
	if last.Issued != 3 {
		t.Fatalf("final window issued = %d, want 3", last.Issued)
	}
	if got := last.LossRate(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("final window loss rate = %v, want 2/3", got)
	}
	if last.MeanHops != 2 {
		t.Fatalf("final window mean hops = %v, want 2", last.MeanHops)
	}
	// MeanActive normalises by the partial window's real length (5 minutes),
	// so 8 nodes active throughout still average to 8.
	if math.Abs(last.MeanActive-8) > 1e-9 {
		t.Fatalf("final window active = %v, want 8", last.MeanActive)
	}

	tot := c.Totals()
	if tot.Issued != 3 || tot.Lost != 2 || tot.Delivered != 1 {
		t.Fatalf("totals = %+v", tot)
	}
}

// A lookup issued during the setup ramp (negative time) is ignored even if
// its outcome lands inside the measured interval.
func TestSetupIssueCrossingIntoMeasurement(t *testing.T) {
	c := NewCollector(10*time.Minute, 10*time.Minute)
	c.ActiveChanged(0, +2)
	issue := -30 * time.Second
	c.LookupIssued(issue)
	c.LookupDelivered(issue, true, time.Minute, 30*time.Second, 4)
	c.LookupIssued(-time.Millisecond)
	c.LookupLost(-time.Millisecond)

	ws := c.Finalize()
	if ws[0].Issued != 0 || ws[0].MeanHops != 0 || ws[0].LossRate() != 0 {
		t.Fatalf("setup-phase lookups leaked into window 0: %+v", ws[0])
	}
	tot := c.Totals()
	if tot.Issued != 0 || tot.Delivered != 0 || tot.Lost != 0 {
		t.Fatalf("setup-phase lookups leaked into totals: %+v", tot)
	}
}
