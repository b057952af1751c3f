package experiments

import (
	"testing"
	"time"

	"mspastry/internal/harness"
)

// tiny returns the smallest scale that still exhibits the paper's
// qualitative behaviours, for shape-assertion tests.
func tiny() Scale {
	return Scale{
		TopoDiv:         8,
		TraceDiv:        48,
		MaxDuration:     40 * time.Minute,
		PoissonNodes:    80,
		PoissonDuration: 40 * time.Minute,
		SetupRamp:       3 * time.Minute,
		Seed:            1,
	}
}

// run executes the named registry entry.
func run(t *testing.T, name string, s Scale) Report {
	t.Helper()
	for _, e := range All {
		if e.Name == name {
			rep, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return rep
		}
	}
	t.Fatalf("no experiment %q in the registry", name)
	return Report{}
}

// headline returns the named headline number of a report.
func headline(t *testing.T, rep Report, name string) float64 {
	t.Helper()
	for _, h := range rep.Headlines {
		if h.Name == name {
			return h.Value
		}
	}
	t.Fatalf("report has no headline %q", name)
	return 0
}

// cell returns one value of a report's first table.
func cell(t *testing.T, rep Report, label, col string) float64 {
	t.Helper()
	for _, r := range rep.Tables[0].Rows {
		if v, ok := r.Values[col]; ok && r.Label == label {
			return v
		}
	}
	t.Fatalf("first table has no %q in row %q", col, label)
	return 0
}

// quick is the scale the longer acceptance tests start from: a couple of
// hundred nodes, about an hour of simulated time per run.
func quick() Scale {
	return Scale{
		TopoDiv:         8,
		TraceDiv:        16,
		MaxDuration:     90 * time.Minute,
		PoissonNodes:    200,
		PoissonDuration: time.Hour,
		SetupRamp:       5 * time.Minute,
		Seed:            1,
	}
}

func TestFig3Shapes(t *testing.T) {
	r := run(t, "fig3", tiny())
	// Microsoft's failure rate is an order of magnitude below Gnutella's.
	gn, ms := headline(t, r, "gnutella-failrate"), headline(t, r, "microsoft-failrate")
	if gn < 5*ms {
		t.Fatalf("gnutella %.3g not well above microsoft %.3g", gn, ms)
	}
	if len(r.Tables[0].Rows) != 3 {
		t.Fatal("missing trace rows")
	}
}

func TestAblationShape(t *testing.T) {
	r := run(t, "ablation", tiny())
	neither := headline(t, r, "loss-neither")
	both := headline(t, r, "loss-both")
	acks := headline(t, r, "loss-acks")
	t.Logf("loss: neither=%.3g acks=%.3g both=%.3g", neither, acks, both)
	// The paper's headline: without both mechanisms a large fraction of
	// lookups is lost; with per-hop acks loss collapses.
	if neither < 10*both+0.005 {
		t.Fatalf("ablation shape lost: neither=%.3g both=%.3g", neither, both)
	}
	if both > 0.01 {
		t.Fatalf("loss with both mechanisms = %.3g, want <1%%", both)
	}
	if acks > 0.01 {
		t.Fatalf("loss with acks only = %.3g, want <1%%", acks)
	}
}

func TestSelfTuningTracksTarget(t *testing.T) {
	r := run(t, "selftune", tiny())
	l5 := headline(t, r, "rawloss-at-5%")
	l1 := headline(t, r, "rawloss-at-1%")
	t.Logf("raw loss at 5%% target: %.3g; at 1%% target: %.3g", l5, l1)
	// Tighter target must yield lower raw loss; the 5% target should land
	// within a small factor of 5% (paper measured 5.3%).
	if l1 >= l5 && l5 > 0 {
		t.Fatalf("1%% target (%.3g) not below 5%% target (%.3g)", l1, l5)
	}
	if l5 > 0.15 {
		t.Fatalf("raw loss %.3g far above the 5%% target", l5)
	}
	c5 := cell(t, r, "targetLr=5%", "ctrl")
	c1 := cell(t, r, "targetLr=1%", "ctrl")
	if c1 <= c5 {
		t.Fatalf("tighter target should cost more control traffic: %.3g vs %.3g", c1, c5)
	}
}

func TestSuppressionGrowsWithTraffic(t *testing.T) {
	r := run(t, "suppression", tiny())
	idle, busy := headline(t, r, "suppressed-idle"), headline(t, r, "suppressed-1lookup/s")
	t.Logf("suppressed fraction: idle=%.2f busy=%.2f", idle, busy)
	if busy <= idle {
		t.Fatalf("suppression did not grow with lookup traffic: %.2f vs %.2f", busy, idle)
	}
	// The paper reports >70% of probes suppressed at 1 lookup/s/node.
	if busy < 0.5 {
		t.Fatalf("suppressed fraction at 1 lookup/s = %.2f, want > 0.5", busy)
	}
}

func TestStructuredHeartbeatsCheaper(t *testing.T) {
	r := run(t, "heartbeat", tiny())
	st := headline(t, r, "ctrl-structured")
	ap := headline(t, r, "ctrl-allpairs")
	t.Logf("control: structured=%.3f all-pairs=%.3f", st, ap)
	if st >= ap {
		t.Fatalf("structured heartbeats (%.3f) not cheaper than all-pairs (%.3f)", st, ap)
	}
}

func TestSessionTimeControlShape(t *testing.T) {
	if testing.Short() {
		t.Skip("two 40-minute Poisson churn runs")
	}
	// Shorter sessions (more churn) must cost more control traffic
	// (Figure 5 centre). Compare two points to keep the test fast.
	s := tiny()
	short := harness.Run(s.baseConfig("gatech", s.poisson(15*time.Minute)))
	long := harness.Run(s.baseConfig("gatech", s.poisson(240*time.Minute)))
	t.Logf("control: 15m=%.3f 240m=%.3f; Trt: 15m=%v 240m=%v",
		short.Totals.ControlPerNodeSec, long.Totals.ControlPerNodeSec,
		short.TrtMedian, long.TrtMedian)
	if short.Totals.ControlPerNodeSec <= long.Totals.ControlPerNodeSec {
		t.Fatal("control traffic did not grow with churn")
	}
	// Self-tuning must probe faster when churn is higher.
	if short.TrtMedian >= long.TrtMedian {
		t.Fatalf("self-tuned Trt did not shrink with churn: %v vs %v",
			short.TrtMedian, long.TrtMedian)
	}
}

func TestNetworkLossShape(t *testing.T) {
	s := tiny()
	clean := harness.Run(s.onGnutella()())
	cfg := s.onGnutella()()
	cfg.NetworkLoss = 0.05
	lossy := harness.Run(cfg)
	t.Logf("clean: %v", clean.Totals)
	t.Logf("lossy: %v", lossy.Totals)
	if clean.Totals.IncorrectRate != 0 {
		t.Fatal("incorrect deliveries without link loss (paper: zero)")
	}
	// Per-hop acks keep lookup loss tiny even at 5% link loss.
	if lossy.Totals.LossRate > 0.01 {
		t.Fatalf("lookup loss %.3g at 5%% link loss, want <1%%", lossy.Totals.LossRate)
	}
	if lossy.Totals.RDP < clean.Totals.RDP {
		t.Log("note: lossy RDP below clean RDP (noise at this scale)")
	}
}

func TestFig8WeekPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("two simulated days of Squirrel replay")
	}
	r := squirrelReplay(1, 30, 2)
	if r.requests == 0 {
		t.Fatal("no web requests replayed")
	}
	// Daytime windows must carry clearly more traffic than night windows.
	var day, night float64
	var dayN, nightN int
	for _, w := range r.windows {
		hour := w.start.Hours() - float64(int(w.start.Hours())/24*24)
		switch {
		case hour >= 10 && hour < 16:
			day += w.totalPerNodeSec
			dayN++
		case hour >= 0 && hour < 6:
			night += w.totalPerNodeSec
			nightN++
		}
	}
	if dayN == 0 || nightN == 0 {
		t.Fatal("window classification failed")
	}
	day /= float64(dayN)
	night /= float64(nightN)
	t.Logf("traffic: day=%.4f night=%.4f msgs/node/s", day, night)
	if day <= night {
		t.Fatal("no daily traffic pattern in the Squirrel replay")
	}
	// The cache must dedupe: origin fetches well below requests.
	if r.originFetches*2 > r.requests {
		t.Fatalf("cache ineffective: %d fetches for %d requests", r.originFetches, r.requests)
	}
}

func TestFig5JoinLatencyRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("two 40-minute Poisson churn runs")
	}
	r := run(t, "fig5join", tiny())
	p50 := time.Duration(cell(t, r, "session=30m", "p50sec") * float64(time.Second))
	p99 := time.Duration(cell(t, r, "session=30m", "p99sec") * float64(time.Second))
	t.Logf("join latency: p50=%v p99=%v", p50, p99)
	// Paper Figure 5 right: joins complete within tens of seconds.
	if p50 <= 0 || p50 > 40*time.Second {
		t.Fatalf("median join latency %v outside the paper's regime", p50)
	}
	if p99 > 3*time.Minute {
		t.Fatalf("p99 join latency %v implausible", p99)
	}
}

func TestFig8ValidationAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("live UDP validation")
	}
	sim, live, err := squirrelValidation(6, 8*time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	agreement := ratio(float64(live), float64(sim))
	t.Logf("sim=%d live=%d ratio=%.2f", sim, live, agreement)
	if agreement < 0.6 || agreement > 1.6 {
		t.Fatalf("simulator and deployment disagree: ratio %.2f", agreement)
	}
}
