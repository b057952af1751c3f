package experiments

import (
	"time"

	"mspastry/internal/harness"
	"mspastry/internal/pastry"
	"mspastry/internal/stats"
)

// The experiments in this file run the harness's stock workload and vary
// one parameter of it.

// fig3 reproduces Figure 3: node failures per node per second over time
// for the Gnutella, OverNet and Microsoft traces, averaged over 10-minute
// windows (1 hour for Microsoft). No simulation: the traces alone.
func fig3(s Scale) (Report, error) {
	t := Table{Cols: []string{"meanRate", "peakToTrough"}}
	for _, name := range measuredFamilies {
		var sum, n float64
		var rates []float64
		tr, window := s.measured(name)
		for _, w := range tr.Windows(window) {
			if w.Active > 0 {
				sum += w.FailureRate
				n++
			}
			rates = append(rates, w.FailureRate)
		}
		// Peak over trough measures the daily/weekly pattern the figure
		// shows.
		lo, hi := extremes(rates)
		t.Rows = append(t.Rows, Row{Label: name, Values: map[string]float64{
			"meanRate": ratio(sum, n), "peakToTrough": ratio(hi, lo),
		}})
	}
	gn, ms := t.Rows[0].Values, t.Rows[2].Values
	return Report{Tables: []Table{t}, Headlines: []Headline{
		{"gnutella-failrate", gn["meanRate"]},
		{"microsoft-failrate", ms["meanRate"]},
		{"gnutella-peak/trough", gn["peakToTrough"]},
	}}, nil
}

// topologies runs the Gnutella trace on CorpNet, GATech and Mercator.
func topologies(s Scale) (Report, error) {
	names := []string{"corpnet", "gatech", "mercator"}
	tr, _ := s.measured("gnutella")
	res := make([]harness.Result, len(names))
	for i, name := range names {
		res[i] = harness.Run(s.baseConfig(name, tr))
	}
	corp, ga, merc := res[0].Totals.RDP, res[1].Totals.RDP, res[2].Totals.RDP
	return Report{Tables: []Table{totalsTable(names, res)}, Headlines: []Headline{
		{"rdp-corpnet", corp},
		{"rdp-gatech", ga},
		{"rdp-mercator", merc},
		{"ctrl-gatech", res[1].Totals.ControlPerNodeSec},
		{"rdp-ordering-holds", flag01(corp < ga && ga < merc)},
	}}, nil
}

// fig4 reproduces Figure 4: RDP and control traffic for the three
// real-world traces, plus the control-traffic breakdown by message type
// for the Gnutella trace (the right-hand graph).
func fig4(s Scale) (Report, error) {
	names := measuredFamilies
	res := sweep(len(names), s.base("gatech", nil), func(i int, cfg *harness.Config) {
		cfg.Trace, cfg.Window = s.measured(names[i])
	})
	gn, ms := res[0], res[2]
	breakdown := Table{Title: "Figure 4 (right): Gnutella control breakdown", Cols: []string{"msgsPerNodeSec"}}
	for _, cat := range []pastry.Category{
		pastry.CatDistance, pastry.CatLeafSet, pastry.CatRTProbe, pastry.CatAck, pastry.CatJoin,
	} {
		breakdown.Rows = append(breakdown.Rows, Row{Label: cat.String(), Values: map[string]float64{
			"msgsPerNodeSec": gn.Totals.ByCategory[cat],
		}})
	}
	var rdps []float64
	for _, w := range gn.Windows {
		rdps = append(rdps, w.RDP)
	}
	lo, hi := extremes(rdps)
	return Report{Tables: []Table{totalsTable(names, res), breakdown}, Headlines: []Headline{
		{"rdp-gnutella", gn.Totals.RDP},
		{"rdp-microsoft", ms.Totals.RDP},
		{"ctrl-gnutella", gn.Totals.ControlPerNodeSec},
		{"ctrl-microsoft", ms.Totals.ControlPerNodeSec},
		// Self-tuning keeps per-window RDP near flat despite the daily
		// churn waves.
		{"gnutella-rdp-peak/trough", ratio(hi, lo)},
	}}, nil
}

// fig5 reproduces Figure 5 (left and centre): RDP and control traffic for
// the Poisson traces across the paper's session times.
func fig5(s Scale) (Report, error) {
	sessions := []time.Duration{
		5 * time.Minute, 15 * time.Minute, 30 * time.Minute,
		60 * time.Minute, 120 * time.Minute, 600 * time.Minute,
	}
	labels := labelf("session=%v", sessions)
	res := sweep(len(labels), s.base("gatech", nil), func(i int, cfg *harness.Config) {
		cfg.Trace = s.poisson(sessions[i])
	})
	at15, at600 := res[1].Totals, res[5].Totals
	return Report{Tables: []Table{totalsTable(labels, res)}, Headlines: []Headline{
		{"ctrl-15m", at15.ControlPerNodeSec},
		{"ctrl-600m", at600.ControlPerNodeSec},
		{"ctrl-ratio-15/600", ratio(at15.ControlPerNodeSec, at600.ControlPerNodeSec)},
		{"rdp-15m", at15.RDP},
	}}, nil
}

// fig5join reproduces Figure 5 (right): the cumulative distribution of
// join latency for the 5-minute and 30-minute Poisson traces.
func fig5join(s Scale) (Report, error) {
	sessions := []time.Duration{5 * time.Minute, 30 * time.Minute}
	labels := []string{"session=5m", "session=30m"}
	res := sweep(len(labels), s.base("gatech", nil), func(i int, cfg *harness.Config) {
		cfg.Trace = s.poisson(sessions[i])
	})
	t := Table{Cols: []string{"p50sec", "p90sec", "p99sec"}}
	for i, r := range res {
		t.Rows = append(t.Rows, Row{Label: labels[i], Values: map[string]float64{
			"p50sec": joinPercentile(r.JoinCDF, 0.5),
			"p90sec": joinPercentile(r.JoinCDF, 0.9),
			"p99sec": joinPercentile(r.JoinCDF, 0.99),
		}})
	}
	return Report{Tables: []Table{t}, Headlines: []Headline{
		{"join-p50-sec", joinPercentile(res[1].JoinCDF, 0.5)},
		{"join-p95-sec", joinPercentile(res[1].JoinCDF, 0.95)},
	}}, nil
}

// joinPercentile returns the join latency, in seconds, at cumulative
// fraction p.
func joinPercentile(cdf []stats.CDFPoint, p float64) float64 {
	for _, pt := range cdf {
		if pt.Fraction >= p {
			return pt.Latency.Seconds()
		}
	}
	if len(cdf) == 0 {
		return 0
	}
	return cdf[len(cdf)-1].Latency.Seconds()
}

// fig6 reproduces Figure 6: the uniform network message loss rate swept
// from 0% to 5% on the Gnutella trace.
func fig6(s Scale) (Report, error) {
	rates := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}
	labels := labelf("netloss=%d%%", []int{0, 1, 2, 3, 4, 5})
	res := sweep(len(labels), s.onGnutella(), func(i int, cfg *harness.Config) { cfg.NetworkLoss = rates[i] })
	clean, lossy := res[0].Totals, res[5].Totals
	return Report{Tables: []Table{totalsTable(labels, res)}, Headlines: []Headline{
		{"lookuploss-0%", clean.LossRate()},
		{"lookuploss-5%", lossy.LossRate()},
		{"incorrect-5%", lossy.IncorrectRate()},
		{"rdp-5%", lossy.RDP},
	}}, nil
}

// fig7l reproduces Figure 7 (left and centre): the leaf set size l swept
// from 8 to 64.
func fig7l(s Scale) (Report, error) {
	ls := []int{8, 16, 24, 32, 48, 64}
	labels := labelf("l=%d", ls)
	res := sweep(len(labels), s.onGnutella(), func(i int, cfg *harness.Config) { cfg.Pastry.L = ls[i] })
	return Report{Tables: []Table{totalsTable(labels, res)}, Headlines: []Headline{
		{"ctrl-l16", res[1].Totals.ControlPerNodeSec},
		{"ctrl-l32", res[3].Totals.ControlPerNodeSec},
		{"rdp-l8", res[0].Totals.RDP},
		{"rdp-l64", res[5].Totals.RDP},
	}}, nil
}

// fig7b reproduces Figure 7 (right): the digit width b swept from 1 to 5
// bits.
func fig7b(s Scale) (Report, error) {
	bs := []int{1, 2, 3, 4, 5}
	labels := labelf("b=%d", bs)
	res := sweep(len(labels), s.onGnutella(), func(i int, cfg *harness.Config) { cfg.Pastry.B = bs[i] })
	return Report{Tables: []Table{totalsTable(labels, res)}, Headlines: []Headline{
		{"rdp-b1", res[0].Totals.RDP},
		{"rdp-b4", res[3].Totals.RDP},
		{"hops-b1", res[0].Totals.MeanHops},
		{"hops-b4", res[3].Totals.MeanHops},
	}}, nil
}

// ablation reproduces the §5.3 "Active probing and per-hop acks"
// experiment: the 2x2 matrix of the two mechanisms. Acks-only also
// raises RDP (paper: +17% at 0.01 lookups/s) because failures are only
// discovered by traffic; compare the acks-only and both rows.
func ablation(s Scale) (Report, error) {
	labels := []string{"neither", "acks-only", "probing-only", "both"}
	probing := []bool{false, false, true, true}
	acks := []bool{false, true, false, true}
	res := sweep(len(labels), s.onGnutella(), func(i int, cfg *harness.Config) {
		cfg.Pastry.ActiveProbing = probing[i]
		cfg.Pastry.PerHopAcks = acks[i]
	})
	return Report{Tables: []Table{totalsTable(labels, res)}, Headlines: []Headline{
		{"loss-neither", res[0].Totals.LossRate()},
		{"loss-acks", res[1].Totals.LossRate()},
		{"loss-probing", res[2].Totals.LossRate()},
		{"loss-both", res[3].Totals.LossRate()},
	}}, nil
}

// selfTuning validates self-tuning: with per-hop acks off the raw loss
// rate is directly observable as the lookup loss rate, and tuning the
// probing period to a target Lr should land near it, the tighter target
// costing a multiple of the control traffic.
func selfTuning(s Scale) (Report, error) {
	targets := []float64{0.05, 0.01}
	labels := []string{"targetLr=5%", "targetLr=1%"}
	res := sweep(len(labels), s.onGnutella(), func(i int, cfg *harness.Config) {
		cfg.Pastry.PerHopAcks = false
		cfg.Pastry.TargetRawLoss = targets[i]
	})
	t := totalsTable(labels, res, "target")
	for i := range t.Rows {
		t.Rows[i].Values["target"] = targets[i]
	}
	return Report{Tables: []Table{t}, Headlines: []Headline{
		{"rawloss-at-5%", res[0].Totals.LossRate()},
		{"rawloss-at-1%", res[1].Totals.LossRate()},
		{"ctrl-ratio-1%/5%", ratio(res[1].Totals.ControlPerNodeSec, res[0].Totals.ControlPerNodeSec)},
	}}, nil
}

// suppression reproduces the probe-suppression observation (§5.3, last
// paragraph): application traffic stands in for active probes, so the
// suppressed share of probes and heartbeats grows with the lookup rate.
func suppression(s Scale) (Report, error) {
	rates := []float64{0, 0.01, 1}
	labels := labelf("lookups=%g/s", rates)
	res := sweep(len(labels), s.onGnutella(), func(i int, cfg *harness.Config) { cfg.LookupRate = rates[i] })
	t := totalsTable(labels, res, "suppressed")
	for i, r := range res {
		c := r.Counters
		t.Rows[i].Values["suppressed"] = ratio(float64(c.SuppressedProbes),
			float64(c.SuppressedProbes+c.SentRTProbes+c.SentHeartbeats))
	}
	return Report{Tables: []Table{t}, Headlines: []Headline{
		{"suppressed-idle", t.Rows[0].Values["suppressed"]},
		{"suppressed-1lookup/s", t.Rows[2].Values["suppressed"]},
	}}, nil
}

// heartbeats compares the paper's single heartbeat to the left neighbour
// against naive all-pairs leaf-set heartbeats at l=32 (the design choice
// that makes Figure 7-left flat in l).
func heartbeats(s Scale) (Report, error) {
	labels := []string{"structured-hb", "all-pairs-hb"}
	res := sweep(len(labels), s.onGnutella(), func(i int, cfg *harness.Config) {
		cfg.Pastry.StructuredHeartbeats = i == 0
	})
	return Report{Tables: []Table{totalsTable(labels, res)}, Headlines: []Headline{
		{"ctrl-structured", res[0].Totals.ControlPerNodeSec},
		{"ctrl-allpairs", res[1].Totals.ControlPerNodeSec},
	}}, nil
}

// consistencyRule compares delivery consistency at 5% link loss with and
// without the hold-on-suspect rule (the paper's remark that consistency
// can be improved "at the expense of latency" by not routing around a
// suspected root).
func consistencyRule(s Scale) (Report, error) {
	labels := []string{"hold-on-suspect", "deliver-immediately"}
	res := sweep(len(labels), s.onGnutella(), func(i int, cfg *harness.Config) {
		cfg.NetworkLoss = 0.05
		cfg.Pastry.HoldOnSuspect = i == 0
	})
	return Report{Tables: []Table{totalsTable(labels, res)}, Headlines: []Headline{
		{"incorrect-with-rule", res[0].Totals.IncorrectRate()},
		{"incorrect-without", res[1].Totals.IncorrectRate()},
		{"rdp-with-rule", res[0].Totals.RDP},
		{"rdp-without", res[1].Totals.RDP},
	}}, nil
}
