package experiments

import (
	"testing"
	"time"

	"mspastry/internal/overload"
)

// TestOverloadDegradesGracefully pins the headline overload claim: at 5×
// the base application load — past the service model's comfortable
// region — lookup success stays within 80% of the 1× baseline, and the
// liveness lane is never shed (the failure detector keeps its traffic
// under overload, so the overlay degrades instead of collapsing).
func TestOverloadDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("two 24-minute simulated overload runs")
	}
	res := overloadRuns(quick(), 40, 24*time.Minute, []float64{1, 5})
	base, loaded := res[0], res[1]
	baseOK, loadedOK := 1-base.Totals.LossRate(), 1-loaded.Totals.LossRate()
	t.Logf("1x: success=%.4f sheds=%v | 5x: success=%.4f sheds=%v budgetHit=%d brkOpens=%d",
		baseOK, base.ShedByLane, loadedOK, loaded.ShedByLane,
		loaded.Counters.RetryBudgetExhausted, loaded.Counters.BreakerOpens)

	if degraded := ratio(loadedOK, baseOK); degraded < 0.8 {
		t.Fatalf("success at 5x degraded to %.2f of baseline (want >= 0.80)", degraded)
	}
	if got := loaded.ShedByLane[overload.LaneLiveness]; got != 0 {
		t.Fatalf("liveness lane shed %d messages under overload; must be 0", got)
	}
}
