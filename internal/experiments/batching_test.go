package experiments

import (
	"math"
	"testing"
	"time"
)

// The acceptance bar for the wire-layer coalescing change: on a seeded
// reduced-scale run of the aggressive-failure-detection workload, the
// coalescing windows remove at least a quarter of control datagrams while
// leaving lookup success and routing unchanged (batching repackages
// messages, it must not alter what the protocol does).
//
// The two arms share seed and workload but consume the simulator's random
// stream differently (the coalescer path schedules extra flush events), so
// per-lookup outcomes are compared as rates with tight tolerances rather
// than count-for-count.
func TestBatchingReducesControlDatagrams(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated A/B run")
	}
	s := quick()
	s.PoissonNodes = 60
	s.PoissonDuration = 30 * time.Minute
	s.MaxDuration = 30 * time.Minute
	s.SetupRamp = 2 * time.Minute

	res := batchingRuns(s)
	off, on := res[0].Totals, res[1].Totals

	if got := controlDatagramReduction(off, on); got < 0.25 {
		t.Errorf("coalescing removed only %.1f%% of control datagrams, want >= 25%%\noff=%.3f/n/s on=%.3f/n/s",
			got*100, off.ControlDatagramsPerNodeSec, on.ControlDatagramsPerNodeSec)
	}

	// Unchanged lookup success: same delivery rate and raw loss, to within
	// half a percent.
	rate := func(delivered, issued int) float64 {
		if issued == 0 {
			return 0
		}
		return float64(delivered) / float64(issued)
	}
	if d := math.Abs(rate(on.Delivered, on.Issued) - rate(off.Delivered, off.Issued)); d > 0.005 {
		t.Errorf("lookup success changed by %.3f: off %d/%d, on %d/%d",
			d, off.Delivered, off.Issued, on.Delivered, on.Issued)
	}
	if d := math.Abs(on.LossRate() - off.LossRate()); d > 0.005 {
		t.Errorf("loss rate changed: off=%.4f on=%.4f", off.LossRate(), on.LossRate())
	}
	// Unchanged routing: hops may wiggle only within noise (delivery timing
	// shifts by at most the window; routes are decided before the wire
	// layer sees the message).
	if d := math.Abs(on.MeanHops - off.MeanHops); d > 0.05 {
		t.Errorf("hops changed: off=%.3f on=%.3f", off.MeanHops, on.MeanHops)
	}

	// Coalescing must actually batch: bytes saved and fewer total datagrams.
	if on.CoalescedSavedBytes == 0 {
		t.Error("no bytes saved by coalescing")
	}
	if on.DatagramsPerNodeSec >= off.DatagramsPerNodeSec {
		t.Errorf("total datagrams did not drop: off=%.3f on=%.3f",
			off.DatagramsPerNodeSec, on.DatagramsPerNodeSec)
	}
}
