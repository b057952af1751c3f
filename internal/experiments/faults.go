package experiments

import (
	"math"
	"time"

	"mspastry/internal/harness"
	"mspastry/internal/netmodel"
	"mspastry/internal/stats"
)

// The partition experiment measures dependability across a network
// partition: a stable overlay is split 50/50 for partitionFor, then the
// partition heals and the harness tracks how long the ring takes to
// repair. Lookups are bucketed into before/during/after phases so
// consistency can be judged per phase — the paper's dependability claim
// translates to zero incorrect deliveries once the overlay has repaired.
//
// partitionWarm is how long the overlay runs undisturbed before the
// split; partitionTail leaves room for repair and post-heal measurement.
// Re-merge rides on the few cross-partition links that survive the
// split's failure detection, so repair takes minutes at a few hundred
// nodes; partitions much longer than the state-purge horizon (a few
// probe timeouts) never re-merge at all — each side purges the other
// completely and the split is permanent, which the harness reports as
// repaired=false with the "during" phase extending to the end of the run.
const (
	partitionFor  = 90 * time.Second
	partitionWarm = 5 * time.Minute
	partitionTail = 15 * time.Minute
)

// partitionRun splits a stable overlay 50/50 for d and heals it.
func partitionRun(s Scale, d time.Duration) harness.Result {
	cfg := s.baseConfig("corpnet", stableTrace("stable", s.PoissonNodes, partitionWarm+d+partitionTail))
	cfg.LookupRate = 0.05
	cfg.Faults = new(harness.FaultScript).Partition(partitionWarm, d, 0.5)
	return harness.Run(cfg)
}

func partitionHeal(s Scale) (Report, error) {
	res := partitionRun(s, partitionFor)
	var rec stats.RecoveryStat // the heal-to-repair record of the one partition
	if len(res.Recovery) > 0 {
		rec = res.Recovery[0]
	}
	t := Table{Cols: []string{"issued", "delivered", "incorrect", "lost", "incRate", "lossRate"}}
	phases := []stats.Outcomes{res.Phases.Before, res.Phases.During, res.Phases.After}
	for i, label := range []string{"before", "during-partition", "after-heal"} {
		p := phases[i]
		t.Rows = append(t.Rows, Row{Label: label, Values: map[string]float64{
			"issued":    float64(p.Issued),
			"delivered": float64(p.Delivered),
			"incorrect": float64(p.Incorrect),
			"lost":      float64(p.Lost),
			"incRate":   p.IncorrectRate(),
			"lossRate":  p.LossRate(),
		}})
	}
	return Report{Tables: []Table{t}, Headlines: []Headline{
		{"repaired", flag01(rec.Repaired)},
		{"time-to-repair-sec", rec.TimeToRepair().Seconds()},
		{"partition-drops", float64(res.DropsByCause[netmodel.DropPartition])},
		{"incorrect-during", res.Phases.During.IncorrectRate()},
		{"incorrect-after", res.Phases.After.IncorrectRate()},
	}}, nil
}

// The delay-spike sweep: spikes larger than the per-hop retransmission
// timeout make live nodes look dead, and without the §3.2 hold-on-suspect
// rule the lookup is delivered at the next-best node — incorrectly. With
// the rule, delivery is held until the suspicion resolves, keeping
// incorrect deliveries orders of magnitude below the naive variant at the
// cost of latency.
//
// The script covers the measurement period with periodic spike windows:
// jitterSpikeOn out of every jitterPeriod, starting after a warm-up.
const (
	jitterFPWarm  = 2 * time.Minute
	jitterFPRun   = 28 * time.Minute
	jitterSpikeOn = 30 * time.Second
	jitterPeriod  = 90 * time.Second
)

var jitterSpikes = []time.Duration{100 * time.Millisecond, 300 * time.Millisecond, time.Second}

// jitterRuns runs one spike magnitude twice: with the hold-on-suspect
// rule (the paper's consistency mechanism) and with naive immediate
// delivery.
func jitterRuns(s Scale, spike time.Duration) (hold, naive harness.Result) {
	// The population is capped: the hold-on-suspect retransmission storm
	// during a spike grows superlinearly with the population, and the
	// false-positive mechanism under test is per-hop, not
	// population-dependent, so a few dozen nodes reproduce the shape at a
	// tiny fraction of the cost.
	nodes := s.PoissonNodes / 2
	if nodes > 48 {
		nodes = 48
	}
	nodes = max(16, nodes)
	res := sweep(2, s.base("corpnet", stableTrace("stable", nodes, jitterFPRun)),
		func(i int, cfg *harness.Config) {
			cfg.LookupRate = 0.2
			cfg.Pastry.HoldOnSuspect = i == 0
			script := new(harness.FaultScript)
			for at := jitterFPWarm; at+jitterSpikeOn <= jitterFPRun-time.Minute; at += jitterPeriod {
				script.Add(at, jitterSpikeOn, netmodel.Fault{Spike: spike})
			}
			cfg.Faults = script
		})
	return res[0], res[1]
}

// gapOrders returns log10 of the naive incorrect-delivery rate over the
// hold-on-suspect rate. When the hold variant observed no incorrect
// delivery at all, its rate is floored at the measurement resolution (one
// incorrect lookup), so the gap is a lower bound.
func gapOrders(hold, naive harness.Result) float64 {
	nRate := naive.Totals.IncorrectRate
	hRate := hold.Totals.IncorrectRate
	if hRate == 0 && hold.Totals.Issued > 0 {
		hRate = 1 / float64(hold.Totals.Issued)
	}
	if nRate == 0 || hRate == 0 {
		return 0
	}
	return math.Log10(nRate / hRate)
}

// jitterFalsePositives sweeps the spike magnitudes: one row per spike and
// variant, with the gap (in orders of magnitude) on the naive row. The
// headlines are those of the largest spike.
func jitterFalsePositives(s Scale) (Report, error) {
	var labels []string
	var res []harness.Result
	var gaps []float64
	for _, spike := range jitterSpikes {
		hold, naive := jitterRuns(s, spike)
		labels = append(labels, "spike="+spike.String()+"/hold", "spike="+spike.String()+"/naive")
		res = append(res, hold, naive)
		gaps = append(gaps, 0, gapOrders(hold, naive))
	}
	t := totalsTable(labels, res, "retxPeak", "gapOrders")
	for i, r := range res {
		t.Rows[i].Values["retxPeak"] = r.Totals.PeakRetxPerNodeSec
		t.Rows[i].Values["gapOrders"] = gaps[i]
	}
	last := len(res) - 2
	return Report{Tables: []Table{t}, Headlines: []Headline{
		{"incorrect-hold", res[last].Totals.IncorrectRate},
		{"incorrect-naive", res[last+1].Totals.IncorrectRate},
		{"gap-orders", gaps[last+1]},
	}}, nil
}
