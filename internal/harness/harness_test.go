package harness

import (
	"testing"
	"time"

	"mspastry/internal/trace"
)

// smallConfig builds a fast experiment: ~60 nodes of Poisson churn on a
// scaled GATech topology.
func smallConfig(t *testing.T, session time.Duration, dur time.Duration) Config {
	t.Helper()
	topo, err := BuildTopology("gatech", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Poisson(session, 60, dur))
	cfg := DefaultConfig(topo, tr)
	cfg.SetupRamp = time.Minute
	return cfg
}

func TestRunStableOverlay(t *testing.T) {
	// Long sessions: almost no churn during a 30-minute run.
	cfg := smallConfig(t, 10*time.Hour, 30*time.Minute)
	cfg.LookupRate = 0.05
	res := Run(cfg)
	if res.Totals.Issued < 1000 {
		t.Fatalf("too few lookups issued: %d", res.Totals.Issued)
	}
	if res.Totals.IncorrectRate() != 0 {
		t.Fatalf("incorrect deliveries in a loss-free run: %v", res.Totals.IncorrectRate())
	}
	if res.Totals.LossRate() > 0.001 {
		t.Fatalf("loss rate %v too high for stable overlay", res.Totals.LossRate())
	}
	if res.Totals.RDP < 1 || res.Totals.RDP > 6 {
		t.Fatalf("RDP %v implausible", res.Totals.RDP)
	}
	if res.Totals.MeanActive < 50 || res.Totals.MeanActive > 70 {
		t.Fatalf("mean active %v, want ~60", res.Totals.MeanActive)
	}
}

func TestRunUnderChurn(t *testing.T) {
	// 30-minute sessions: every node turns over about once during the run.
	cfg := smallConfig(t, 30*time.Minute, time.Hour)
	res := Run(cfg)
	if res.Totals.Issued == 0 {
		t.Fatal("no lookups issued")
	}
	if res.Totals.IncorrectRate() != 0 {
		t.Fatalf("incorrect deliveries without link loss: %v (paper: zero)", res.Totals.IncorrectRate())
	}
	if res.Totals.LossRate() > 0.01 {
		t.Fatalf("loss rate %v too high with per-hop acks", res.Totals.LossRate())
	}
	if res.Totals.ControlPerNodeSec <= 0 {
		t.Fatal("no control traffic measured")
	}
	if res.Totals.Joins == 0 {
		t.Fatal("no joins recorded under churn")
	}
}

func TestRunWithNetworkLoss(t *testing.T) {
	cfg := smallConfig(t, time.Hour, 30*time.Minute)
	cfg.NetworkLoss = 0.05
	res := Run(cfg)
	if res.NetworkDrops == 0 {
		t.Fatal("loss injection did not drop anything")
	}
	// Per-hop acks keep the loss rate low even at 5% link loss.
	if res.Totals.LossRate() > 0.02 {
		t.Fatalf("lookup loss %v too high despite per-hop acks", res.Totals.LossRate())
	}
}

func TestRunWindowsCoverTrace(t *testing.T) {
	cfg := smallConfig(t, time.Hour, 30*time.Minute)
	cfg.Window = 10 * time.Minute
	res := Run(cfg)
	if len(res.Windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(res.Windows))
	}
	for i, w := range res.Windows {
		if w.MeanActive < 40 || w.MeanActive > 80 {
			t.Fatalf("window %d active = %v, want ~60", i, w.MeanActive)
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	a := Run(smallConfig(t, time.Hour, 20*time.Minute))
	b := Run(smallConfig(t, time.Hour, 20*time.Minute))
	if a.Totals.Issued != b.Totals.Issued || a.SimEvents != b.SimEvents {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Totals, b.Totals)
	}
}

func TestJoinLatencyCDFMonotone(t *testing.T) {
	cfg := smallConfig(t, 20*time.Minute, 40*time.Minute)
	res := Run(cfg)
	if len(res.JoinCDF) == 0 {
		t.Fatal("no join latencies under churn")
	}
	prev := 0.0
	for _, p := range res.JoinCDF {
		if p.Fraction < prev {
			t.Fatal("CDF not monotone")
		}
		prev = p.Fraction
		if p.Latency < 0 || p.Latency > 5*time.Minute {
			t.Fatalf("join latency %v implausible", p.Latency)
		}
	}
}
