package harness

import (
	"testing"
	"time"

	"mspastry/internal/trace"
)

// staticLookupConfig is the benchmark's sim-lookup shape with the
// protocol's defaults, breakers included: a static 300-node overlay on
// CorpNet issuing one lookup per second per node for window.
func staticLookupConfig(t *testing.T, seed int64, window time.Duration) Config {
	t.Helper()
	topo, err := BuildTopology("corpnet", 1, 1)
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	tr := &trace.Trace{Name: "static", Duration: window, Nodes: 300}
	for i := range tr.Nodes {
		tr.Initial = append(tr.Initial, i)
	}
	cfg := DefaultConfig(topo, tr)
	cfg.Seed = seed
	cfg.LookupRate = 1
	cfg.Window = window
	return cfg
}

// checkAccounted fails unless every lookup of a run without churn either
// reached its root or was reported dropped: none delivered at a wrong root,
// none lost silently.
func checkAccounted(t *testing.T, res Result) {
	t.Helper()
	tot := res.Totals
	t.Logf("issued=%d delivered=%d incorrect=%d dropped=%v timeout_lost=%d",
		tot.Issued, tot.Delivered, tot.Incorrect, res.DropsByReason, res.TimeoutLost)
	if tot.Incorrect != 0 || res.TimeoutLost != 0 {
		t.Errorf("%d lookups delivered at a wrong root, %d lost without a report", tot.Incorrect, res.TimeoutLost)
	}
}

// At seed 1 this shape lost 5 lookups silently before a held lookup was
// re-routed at every tick and dropped with a reason after a bound.
func TestStaticOverlayAccountsForEveryLookup(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5 simulated lookups: skipped in -short")
	}
	res := Run(staticLookupConfig(t, 1, 6*time.Minute))
	if res.Totals.Issued < 100_000 {
		t.Fatalf("%d lookups issued, want at least 10^5", res.Totals.Issued)
	}
	checkAccounted(t, res)
}

// Short inbound loss windows — shorter than the probe timeout, so no node
// is marked failed — make the senders of hops into a few nodes exclude
// them while they stay the roots of their keys: the case where a node
// that holds no alternative must not deliver. With HoldOnSuspect off, 18
// lookups of this run are delivered at a wrong root.
func TestShortInboundLossDeliversNoWrongRoot(t *testing.T) {
	if testing.Short() {
		t.Skip("300-node run: skipped in -short")
	}
	cfg := staticLookupConfig(t, 2, 2*time.Minute)
	cfg.Faults = new(FaultScript)
	for i, slot := range []int{7, 70, 140, 210, 280} {
		at := 10*time.Second + time.Duration(i)*20*time.Second
		for from := range cfg.Trace.Nodes {
			if from != slot {
				cfg.Faults.linkLoss(at, cfg.Pastry.To*2/3, from, slot, 0.99)
			}
		}
	}
	res := Run(cfg)
	if res.Counters.Retransmits == 0 {
		t.Fatal("no hop timed out: the loss windows excluded nobody")
	}
	checkAccounted(t, res)
}
