package trace

import (
	"math"
	"testing"
	"time"
)

func TestGnutellaStatistics(t *testing.T) {
	tr := Generate(Gnutella())
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	lo, hi := tr.ActiveBounds()
	// Paper: active varies between 1300 and 2700. Allow generous slack for
	// the synthetic generator, but the band must be in the right regime.
	if lo < 800 || hi > 4000 {
		t.Fatalf("active bounds [%d,%d] outside plausible Gnutella regime", lo, hi)
	}
	mean := tr.MeanSessionObserved()
	// Completed-session mean is biased low (long sessions are censored by
	// the 60 h window), so accept a band around 2.3 h.
	if mean < 60*time.Minute || mean > 4*time.Hour {
		t.Fatalf("observed mean session %v implausible for Gnutella (2.3h)", mean)
	}
}

func TestOverNetStatistics(t *testing.T) {
	tr := Generate(OverNet())
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	lo, hi := tr.ActiveBounds()
	if lo < 150 || hi > 900 {
		t.Fatalf("active bounds [%d,%d] outside OverNet regime (260-650)", lo, hi)
	}
}

func TestMicrosoftStatistics(t *testing.T) {
	tr := Generate(Microsoft())
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	lo, hi := tr.ActiveBounds()
	if lo < 13800 || hi > 16400 {
		t.Fatalf("active bounds [%d,%d] outside Microsoft regime (14700-15600)", lo, hi)
	}
	// Failure rate an order of magnitude lower than Gnutella (paper Fig 3:
	// Gnutella peaks ~3e-4, Microsoft ~1.5e-5 failures/node/s).
	gn := meanFailureRate(Generate(Gnutella()), 10*time.Minute)
	ms := meanFailureRate(tr, time.Hour)
	if ms*5 > gn {
		t.Fatalf("Microsoft failure rate %.3g not well below Gnutella %.3g", ms, gn)
	}
}

func meanFailureRate(tr *Trace, window time.Duration) float64 {
	var sum float64
	var n int
	for _, w := range tr.Windows(window) {
		if w.Active > 0 {
			sum += w.FailureRate
			n++
		}
	}
	return sum / float64(n)
}

func TestFailureRateMagnitudes(t *testing.T) {
	// Figure 3 y-axis regimes: Gnutella/OverNet ~1e-4..3.5e-4, Microsoft
	// up to ~2e-5 failures per node per second.
	gn := meanFailureRate(Generate(Gnutella()), 10*time.Minute)
	if gn < 5e-5 || gn > 5e-4 {
		t.Errorf("Gnutella mean failure rate %.3g outside Fig 3 regime", gn)
	}
	on := meanFailureRate(Generate(OverNet()), 10*time.Minute)
	if on < 5e-5 || on > 5e-4 {
		t.Errorf("OverNet mean failure rate %.3g outside Fig 3 regime", on)
	}
	ms := meanFailureRate(Generate(Microsoft()), time.Hour)
	if ms < 1e-6 || ms > 3e-5 {
		t.Errorf("Microsoft mean failure rate %.3g outside Fig 3 regime", ms)
	}
}

func TestDiurnalPatternVisible(t *testing.T) {
	// The paper's Figure 3 shows clear daily waves. Check that the join
	// rate fluctuates substantially across 24h for the Gnutella config.
	tr := Generate(Gnutella())
	wins := tr.Windows(time.Hour)
	minJ, maxJ := math.MaxInt, 0
	for _, w := range wins[:len(wins)-1] {
		if w.Joins < minJ {
			minJ = w.Joins
		}
		if w.Joins > maxJ {
			maxJ = w.Joins
		}
	}
	if maxJ < minJ*2 {
		t.Fatalf("diurnal variation too weak: joins range [%d,%d]", minJ, maxJ)
	}
}

func TestPoissonTraceStationary(t *testing.T) {
	tr := Generate(Poisson(30*time.Minute, 1000, 6*time.Hour))
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	lo, hi := tr.ActiveBounds()
	if lo < 800 || hi > 1200 {
		t.Fatalf("Poisson active bounds [%d,%d] drifted from 1000", lo, hi)
	}
	mean := tr.MeanSessionObserved()
	if mean < 20*time.Minute || mean > 40*time.Minute {
		t.Fatalf("Poisson observed mean session %v, want ~30m", mean)
	}
}

func TestPoissonSessionSweep(t *testing.T) {
	// The failure rate must scale inversely with session time: the 5-minute
	// trace has ~6x the per-node failure rate of the 30-minute trace.
	short := meanFailureRate(Generate(Poisson(5*time.Minute, 300, 2*time.Hour)), 10*time.Minute)
	long := meanFailureRate(Generate(Poisson(30*time.Minute, 300, 2*time.Hour)), 10*time.Minute)
	ratio := short / long
	if ratio < 3.5 || ratio > 10 {
		t.Fatalf("failure-rate ratio 5m/30m = %.2f, want ~6", ratio)
	}
}

func TestScaledConfig(t *testing.T) {
	cfg := Gnutella().Scaled(10, 2*time.Hour)
	if cfg.Population != 1700 {
		t.Fatalf("scaled population = %d", cfg.Population)
	}
	if cfg.Duration != 2*time.Hour {
		t.Fatalf("scaled duration = %v", cfg.Duration)
	}
	tr := Generate(cfg)
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid scaled trace: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Gnutella().Scaled(20, time.Hour))
	b := Generate(Gnutella().Scaled(20, time.Hour))
	if len(a.Events) != len(b.Events) || len(a.Initial) != len(b.Initial) {
		t.Fatal("same config produced different traces")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestWindowsActiveIntegral(t *testing.T) {
	// Hand-built trace: 2 nodes initial; node 2 joins at 30s, node 0
	// leaves at 90s. Window = 60s over 120s.
	tr := &Trace{
		Name: "hand", Duration: 2 * time.Minute, Nodes: 3,
		Initial: []int{0, 1},
		Events: []Event{
			{At: 30 * time.Second, Node: 2, Kind: Join},
			{At: 90 * time.Second, Node: 0, Kind: Leave},
		},
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	wins := tr.Windows(time.Minute)
	if len(wins) != 2 {
		t.Fatalf("windows = %d, want 2", len(wins))
	}
	// Window 0: 2 active for 30s, 3 active for 30s -> mean 2.5.
	if math.Abs(wins[0].Active-2.5) > 1e-9 {
		t.Fatalf("window 0 active = %v, want 2.5", wins[0].Active)
	}
	// Window 1: 3 active for 30s, 2 for 30s -> 2.5; one leave.
	if math.Abs(wins[1].Active-2.5) > 1e-9 {
		t.Fatalf("window 1 active = %v, want 2.5", wins[1].Active)
	}
	if wins[1].Leaves != 1 || wins[0].Joins != 1 {
		t.Fatalf("event counts wrong: %+v", wins)
	}
	wantRate := 1.0 / 2.5 / 60
	if math.Abs(wins[1].FailureRate-wantRate) > 1e-12 {
		t.Fatalf("failure rate = %v, want %v", wins[1].FailureRate, wantRate)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := &Trace{
		Name: "x", Duration: time.Minute, Nodes: 2,
		Initial: []int{0},
		Events: []Event{
			{At: 10 * time.Second, Node: 1, Kind: Join},
			{At: 20 * time.Second, Node: 1, Kind: Leave},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good trace rejected: %v", err)
	}
	cases := map[string]func(*Trace){
		"join while online":   func(tr *Trace) { tr.Events[0].Node = 0 },
		"leave while offline": func(tr *Trace) { tr.Events[0].Kind = Leave },
		"out of order":        func(tr *Trace) { tr.Events[0].At = 30 * time.Second },
		"beyond duration":     func(tr *Trace) { tr.Events[1].At = 2 * time.Minute },
		"bad node":            func(tr *Trace) { tr.Events[0].Node = 5 },
		"dup initial":         func(tr *Trace) { tr.Initial = []int{0, 0} },
	}
	for name, corrupt := range cases {
		tr := &Trace{
			Name: good.Name, Duration: good.Duration, Nodes: good.Nodes,
			Initial: append([]int(nil), good.Initial...),
			Events:  append([]Event(nil), good.Events...),
		}
		corrupt(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestLognormalSessionShape(t *testing.T) {
	// Gnutella sessions: mean 2.3h, median 1h. Sample directly and check
	// both moments come out near the targets.
	cfg := Gnutella()
	tr := Generate(Config{
		Name: "s", Duration: 1000 * time.Hour, Population: 1,
		OnlineFraction: 0.99, MeanSession: cfg.MeanSession,
		MedianSession: cfg.MedianSession, Seed: 5,
	})
	var sessions []float64
	joined := map[int]time.Duration{}
	for _, ev := range tr.Events {
		if ev.Kind == Join {
			joined[ev.Node] = ev.At
		} else if start, ok := joined[ev.Node]; ok {
			sessions = append(sessions, (ev.At - start).Hours())
		}
	}
	if len(sessions) < 50 {
		t.Skipf("only %d sessions sampled", len(sessions))
	}
	var sum float64
	for _, s := range sessions {
		sum += s
	}
	mean := sum / float64(len(sessions))
	if mean < 1.5 || mean > 3.5 {
		t.Errorf("sampled mean session %.2fh, want ~2.3h", mean)
	}
}
