package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mspastry/internal/pastry"
)

// ReportString renders a Result as a canonical, fully deterministic text
// report: every field is serialized with stable ordering (map keys
// sorted) and round-trip float formatting, so two runs produce the same
// string iff they produced the same numbers. The refactor-guard tests
// pin a fixed-seed churn run's report against a golden file to prove
// seeded simulations stay bit-identical across internal refactors.
func (r Result) ReportString() string {
	var b strings.Builder
	t := r.Totals
	fmt.Fprintf(&b, "totals issued=%d delivered=%d incorrect=%d lost=%d\n",
		t.Issued, t.Delivered, t.Incorrect, t.Lost)
	fmt.Fprintf(&b, "totals rdp=%s rdp_mor=%s hops=%s loss=%s incorrect_rate=%s\n",
		g(t.RDP), g(t.RDPMeanOfRatios), g(t.MeanHops), g(t.LossRate()), g(t.IncorrectRate()))
	fmt.Fprintf(&b, "totals control=%s total=%s control_bytes=%s dgrams=%s control_dgrams=%s saved_bytes=%d\n",
		g(t.ControlPerNodeSec), g(t.TotalPerNodeSec), g(t.ControlBytesPerNodeSec),
		g(t.DatagramsPerNodeSec), g(t.ControlDatagramsPerNodeSec), t.CoalescedSavedBytes)
	fmt.Fprintf(&b, "totals active=%s joins=%d median_join=%d retx=%d peak_retx=%s\n",
		g(t.MeanActive), t.Joins, int64(t.MedianJoinLatency), t.Retransmits, g(t.PeakRetxPerNodeSec))
	writeCategories(&b, "totals", t.ByCategory)

	for _, w := range r.Windows {
		fmt.Fprintf(&b, "window start=%d active=%s control=%s control_bytes=%s dgrams=%s control_dgrams=%s\n",
			int64(w.Start), g(w.MeanActive), g(w.ControlPerNodeSec), g(w.ControlBytesPerNodeSec),
			g(w.DatagramsPerNodeSec), g(w.ControlDatagramsPerNodeSec))
		fmt.Fprintf(&b, "window start=%d rdp=%s rdp_mor=%s hops=%s loss=%s incorrect=%s issued=%d retx=%s\n",
			int64(w.Start), g(w.RDP), g(w.RDPMeanOfRatios), g(w.MeanHops), g(w.LossRate()),
			g(w.IncorrectRate()), w.Issued, g(w.RetxPerNodeSec))
		writeCategories(&b, fmt.Sprintf("window start=%d", int64(w.Start)), w.ByCategory)
	}

	for _, p := range r.JoinCDF {
		fmt.Fprintf(&b, "joincdf latency=%d fraction=%s\n", int64(p.Latency), g(p.Fraction))
	}

	fmt.Fprintf(&b, "counters %+v\n", r.Counters)
	fmt.Fprintf(&b, "network drops=%d by_cause=%v faults=%+v shed=%v\n",
		r.NetworkDrops, r.DropsByCause, r.FaultCounts, r.ShedByLane)
	fmt.Fprintf(&b, "adversary %+v\n", r.Adversary)
	fmt.Fprintf(&b, "phases before=%+v during=%+v after=%+v\n",
		r.Phases.Before, r.Phases.During, r.Phases.After)
	for _, rec := range r.Recovery {
		fmt.Fprintf(&b, "recovery heal=%d repaired_at=%d repaired=%t\n",
			int64(rec.HealAt), int64(rec.RepairedAt), rec.Repaired)
	}
	fmt.Fprintf(&b, "sim events=%d timeout_lost=%d trt_median=%d\n",
		r.SimEvents, r.TimeoutLost, int64(r.TrtMedian))

	reasons := make([]int, 0, len(r.DropsByReason))
	for reason := range r.DropsByReason {
		reasons = append(reasons, int(reason))
	}
	sort.Ints(reasons)
	for _, reason := range reasons {
		fmt.Fprintf(&b, "drop reason=%d count=%d\n", reason, r.DropsByReason[pastry.DropReason(reason)])
	}
	return b.String()
}

// writeCategories renders a per-category rate map in category order.
func writeCategories(b *strings.Builder, prefix string, m map[pastry.Category]float64) {
	cats := make([]int, 0, len(m))
	for c := range m {
		cats = append(cats, int(c))
	}
	sort.Ints(cats)
	for _, c := range cats {
		fmt.Fprintf(b, "%s cat=%s rate=%s\n", prefix, pastry.Category(c), g(m[pastry.Category(c)]))
	}
}

// g formats a float with the smallest representation that round-trips,
// so equal bits give equal strings and unequal bits give unequal ones.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
