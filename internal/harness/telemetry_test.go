package harness

import (
	"strings"
	"testing"
	"time"

	"mspastry/internal/telemetry"
)

// TestHopTraceReconstruction is the hop-tracing acceptance experiment: in
// a churn-free 100-node run, the recorded hop traces must reconstruct the
// complete route path for at least 99% of delivered lookups.
func TestHopTraceReconstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulated run")
	}
	topo, err := BuildTopology("corpnet", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(topo, stableTrace(100, 20*time.Minute))
	cfg.SetupRamp = 2 * time.Minute
	cfg.Window = 5 * time.Minute
	cfg.LookupRate = 0.05
	cfg.Seed = 7
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.TraceLookups = true

	res := Run(cfg)
	if res.Totals.Delivered == 0 {
		t.Fatal("no lookups delivered")
	}
	ts := res.TraceStats
	if ts.Delivered == 0 {
		t.Fatal("tracer saw no deliveries")
	}
	if rate := ts.ReconstructionRate(); rate < 0.99 {
		t.Errorf("route reconstruction rate %.4f < 0.99 (delivered=%d reconstructed=%d)",
			rate, ts.Delivered, ts.Reconstructed)
	}

	// Every reconstructed path must chain origin -> ... -> root.
	checked := 0
	for _, lt := range res.Tracer.Recent(0) {
		if !lt.Delivered {
			continue
		}
		path, ok := lt.Path()
		if !ok {
			continue
		}
		if path[0].ID != lt.Origin.ID || path[len(path)-1].ID != lt.Root.ID {
			t.Fatalf("path endpoints wrong: %v (origin %v root %v)", path, lt.Origin, lt.Root)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no complete paths checked")
	}
}

// TestSimMetricsMatchLiveNames verifies the harness registers the same
// metric names a live node serves on /metrics, so dashboards are
// interchangeable between simulator and deployment.
func TestSimMetricsMatchLiveNames(t *testing.T) {
	topo, err := BuildTopology("corpnet", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(topo, stableTrace(20, 6*time.Minute))
	cfg.SetupRamp = time.Minute
	cfg.Window = 2 * time.Minute
	cfg.LookupRate = 0.05
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.TraceLookups = true
	res := Run(cfg)
	if res.Totals.Delivered == 0 {
		t.Fatal("no lookups delivered")
	}

	var b strings.Builder
	if err := cfg.Telemetry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{
		"mspastry_lookups_issued_total",
		"mspastry_lookups_delivered_total",
		"mspastry_lookup_hops_bucket",
		"mspastry_lookup_delay_seconds_count",
		"mspastry_messages_sent_total{category=\"leafset\"}",
		"mspastry_ack_rtt_seconds_count",
		"mspastry_trt_seconds",
		"mspastry_joins_total",
		"mspastry_node_heartbeats_sent",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metrics dump missing %q", name)
		}
	}
}
