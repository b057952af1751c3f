package harness

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"mspastry/internal/telemetry"
)

// TestTraceLookupsRequiresTelemetry: the events are recorded by the
// telemetry overlay, so asking for them without a registry is refused
// rather than recording nothing.
func TestTraceLookupsRequiresTelemetry(t *testing.T) {
	topo, err := BuildTopology("corpnet", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(topo, stableTrace(4, time.Minute))
	cfg.TraceLookups = true
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "TraceLookups") {
			t.Fatalf("panicked with %v, want one naming TraceLookups", r)
		}
	}()
	Run(cfg)
}

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
	ts := res.Tracer.Stats()
	if ts.Delivered == 0 {
		t.Fatal("tracer saw no deliveries")
	}
	if rate := ts.ReconstructionRate(); rate < 0.99 {
		t.Errorf("route reconstruction rate %.4f < 0.99 (delivered=%d reconstructed=%d)",
			rate, ts.Delivered, ts.Reconstructed)
	}

	// Every reconstructed path must chain origin -> ... -> root.
	checked := 0
	closed, _ := telemetry.Traces(res.Tracer.Recent(0))
	for _, trace := range closed {
		end := trace[len(trace)-1]
		if end.Kind != telemetry.KindDelivered {
			continue
		}
		path, ok := telemetry.Path(trace)
		if !ok {
			continue
		}
		if path[0].ID != end.Origin.ID || path[len(path)-1].ID != end.Node.ID {
			t.Fatalf("path endpoints wrong: %v (origin %v root %v)", path, end.Origin, end.Node)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no complete paths checked")
	}
}

// liveFamiliesGolden holds the # HELP and # TYPE lines of every metric
// family a live mspastry-node exposes, pinned by that command's own test.
const liveFamiliesGolden = "../../cmd/mspastry-node/testdata/metric_families.golden"

// TestSimMetricsMatchLiveNames checks that every family the simulator
// emits, a live node emits too, with the same help text and type, so
// dashboards are interchangeable between simulator and deployment.
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
	golden, err := os.ReadFile(liveFamiliesGolden)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[string]bool)
	for _, line := range strings.Split(string(golden), "\n") {
		live[line] = true
	}
	dumped := make(map[string]bool)
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		dumped[strings.Fields(line)[2]] = true
		if !live[line] {
			t.Errorf("the simulator emits a line no live node does: %s", line)
		}
	}
	// One family from the overlay observer, one from the end-of-run mirror
	// of the node counters: the dump is not vacuously a subset.
	for _, name := range []string{"mspastry_lookups_issued_total", "mspastry_node_heartbeats_sent"} {
		if !dumped[name] {
			t.Errorf("metrics dump lacks %s", name)
		}
	}
}
