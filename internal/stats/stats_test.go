package stats

import (
	"math"
	"testing"
	"time"

	"mspastry/internal/pastry"
)

func TestWindowAttribution(t *testing.T) {
	c := NewCollector(30*time.Minute, 10*time.Minute)
	c.ActiveChanged(0, +10)
	// Messages in each window.
	c.MsgSent(time.Minute, pastry.CatLeafSet, 40)
	c.MsgSent(11*time.Minute, pastry.CatLeafSet, 40)
	c.MsgSent(12*time.Minute, pastry.CatDistance, 40)
	c.MsgSent(25*time.Minute, pastry.CatAck, 40)
	ws := c.Finalize()
	if len(ws) != 3 {
		t.Fatalf("windows = %d", len(ws))
	}
	if ws[0].ByCategory[pastry.CatLeafSet] == 0 || ws[1].ByCategory[pastry.CatLeafSet] == 0 {
		t.Fatal("leafset messages not attributed")
	}
	if ws[2].ByCategory[pastry.CatAck] == 0 {
		t.Fatal("ack message not attributed to last window")
	}
	// 10 nodes for 600s -> 1 msg / 6000 node-seconds.
	want := 1.0 / 6000
	if got := ws[0].ByCategory[pastry.CatLeafSet]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("rate = %v, want %v", got, want)
	}
}

func TestLookupAccounting(t *testing.T) {
	c := NewCollector(20*time.Minute, 10*time.Minute)
	c.ActiveChanged(0, +5)
	for i := 0; i < 10; i++ {
		c.LookupIssued(time.Minute)
	}
	c.LookupDelivered(time.Minute, true, 150*time.Millisecond, 100*time.Millisecond, 3)
	c.LookupDelivered(time.Minute, true, 250*time.Millisecond, 100*time.Millisecond, 2)
	c.LookupDelivered(time.Minute, false, 50*time.Millisecond, 0, 1)
	c.LookupLost(time.Minute)
	ws := c.Finalize()
	w := ws[0]
	if w.Issued != 10 {
		t.Fatalf("issued = %d", w.Issued)
	}
	// ratio-of-means: (0.15+0.25)/(0.1+0.1) = 2.0.
	if math.Abs(w.RDP-2.0) > 1e-9 {
		t.Fatalf("RDP = %v, want 2.0", w.RDP)
	}
	// mean-of-ratios: (1.5+2.5)/2 = 2.0 as well in this symmetric case.
	if math.Abs(w.RDPMeanOfRatios-2.0) > 1e-9 {
		t.Fatalf("RDPMeanOfRatios = %v, want 2.0", w.RDPMeanOfRatios)
	}
	if math.Abs(w.LossRate()-0.1) > 1e-9 {
		t.Fatalf("loss = %v, want 0.1", w.LossRate())
	}
	if math.Abs(w.IncorrectRate()-0.1) > 1e-9 {
		t.Fatalf("incorrect = %v, want 0.1", w.IncorrectRate())
	}
	if math.Abs(w.MeanHops-2.0) > 1e-9 {
		t.Fatalf("hops = %v, want 2.0", w.MeanHops)
	}
}

func TestSetupPhaseIgnored(t *testing.T) {
	c := NewCollector(10*time.Minute, 10*time.Minute)
	c.ActiveChanged(-time.Minute, +3) // during setup
	c.MsgSent(-30*time.Second, pastry.CatLeafSet, 40)
	c.LookupIssued(-time.Second)
	c.LookupDelivered(-time.Second, true, time.Millisecond, time.Millisecond, 1)
	c.LookupLost(-time.Second)
	tt := c.Totals()
	if tt.Issued != 0 || tt.Delivered != 0 || tt.Lost != 0 {
		t.Fatalf("setup-phase events leaked into totals: %+v", tt)
	}
	if tt.ControlPerNodeSec != 0 {
		t.Fatal("setup-phase traffic counted")
	}
	// The active count carries over into measurement.
	if math.Abs(tt.MeanActive-3) > 1e-9 {
		t.Fatalf("mean active = %v, want 3", tt.MeanActive)
	}
}

func TestActiveIntegration(t *testing.T) {
	c := NewCollector(20*time.Minute, 10*time.Minute)
	c.ActiveChanged(0, +4)
	c.ActiveChanged(5*time.Minute, +4) // 4 for 5min, 8 for 5min -> avg 6
	c.ActiveChanged(10*time.Minute, -8)
	ws := c.Finalize()
	if math.Abs(ws[0].MeanActive-6) > 1e-9 {
		t.Fatalf("window 0 active = %v, want 6", ws[0].MeanActive)
	}
	if math.Abs(ws[1].MeanActive) > 1e-9 {
		t.Fatalf("window 1 active = %v, want 0", ws[1].MeanActive)
	}
}

func TestControlExcludesLookups(t *testing.T) {
	c := NewCollector(10*time.Minute, 10*time.Minute)
	c.ActiveChanged(0, +1)
	c.MsgSent(time.Minute, pastry.CatLookup, 40)
	c.MsgSent(time.Minute, pastry.CatAck, 40)
	tt := c.Totals()
	want := 1.0 / 600
	if math.Abs(tt.ControlPerNodeSec-want) > 1e-12 {
		t.Fatalf("control = %v, want %v (lookups must not count)", tt.ControlPerNodeSec, want)
	}
}

func TestJoinLatencyCDF(t *testing.T) {
	c := NewCollector(time.Minute, time.Minute)
	for _, d := range []time.Duration{3 * time.Second, time.Second, 2 * time.Second} {
		c.JoinLatency(d)
	}
	cdf := c.JoinLatencyCDF()
	if len(cdf) != 3 {
		t.Fatalf("cdf points = %d", len(cdf))
	}
	if cdf[0].Latency != time.Second || cdf[2].Latency != 3*time.Second {
		t.Fatalf("cdf not sorted: %v", cdf)
	}
	if math.Abs(cdf[2].Fraction-1.0) > 1e-9 {
		t.Fatalf("last fraction = %v", cdf[2].Fraction)
	}
	tt := c.Totals()
	if tt.MedianJoinLatency != 2*time.Second {
		t.Fatalf("median join = %v", tt.MedianJoinLatency)
	}
}

func TestNegativeActivePanics(t *testing.T) {
	c := NewCollector(time.Minute, time.Minute)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative active count")
		}
	}()
	c.ActiveChanged(0, -1)
}

func TestTotalsString(t *testing.T) {
	c := NewCollector(time.Minute, time.Minute)
	c.ActiveChanged(0, +2)
	s := c.Totals().String()
	if s == "" {
		t.Fatal("empty summary")
	}
}
