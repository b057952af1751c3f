// Command mspastry-bench reproduces the tables and figures of the paper's
// evaluation (§5). Each experiment prints the rows or series the paper
// plots; EXPERIMENTS.md maps every output to its figure and records the
// paper's values next to measured ones.
//
// The repo's performance benchmark is a separate program: see
// bench/README.md and `sh bench/run.sh`.
//
// Examples:
//
//	mspastry-bench -experiment all
//	mspastry-bench -experiment fig6 -trace-div 8 -max-dur 3h
//	mspastry-bench -experiment fig8validate -validate-dur 20s
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mspastry/internal/experiments"
)

func main() {
	log.SetFlags(0)
	var (
		which       = flag.String("experiment", "all", "experiment: all, fig3, topo, fig4, fig5, fig5join, fig6, fig7l, fig7b, ablation, selftune, suppression, heartbeat, consistency, massfailure, partitionheal, jitterfp, antientropy, batching, overload, secure, hotspot, fig8, fig8validate")
		topoDiv     = flag.Int("topo-div", 8, "topology scale divisor (1 = paper size)")
		traceDiv    = flag.Int("trace-div", 16, "trace population divisor (1 = paper size)")
		maxDur      = flag.Duration("max-dur", 90*time.Minute, "cap on trace duration (0 = full traces; full Gnutella is 60h)")
		poisson     = flag.Int("poisson-nodes", 250, "average nodes in the artificial traces (paper: 10000)")
		poissonDur  = flag.Duration("poisson-dur", time.Hour, "artificial trace duration")
		ramp        = flag.Duration("ramp", 5*time.Minute, "setup ramp")
		seed        = flag.Int64("seed", 1, "random seed")
		partFor     = flag.Duration("partition-for", 90*time.Second, "partitionheal: partition duration")
		fig8Days    = flag.Int("fig8-days", 6, "Squirrel replay length in days")
		coWin       = flag.Duration("coalesce", 30*time.Millisecond, "batching: base coalescing window")
		coLong      = flag.Duration("coalesce-long", 2500*time.Millisecond, "batching: delay-tolerant coalescing window (keep < probe timeout To)")
		aeNodes     = flag.Int("ae-nodes", 100, "antientropy: cluster size")
		aeObjects   = flag.Int("ae-objects", 1000, "antientropy: stored objects")
		hsNodes     = flag.Int("hotspot-nodes", 0, "hotspot: cluster size (0 = scale default)")
		hsDur       = flag.Duration("hotspot-dur", 0, "hotspot: measurement window (0 = scale default)")
		validateN   = flag.Int("validate-nodes", 8, "fig8validate: overlay size")
		validateDur = flag.Duration("validate-dur", 15*time.Second, "fig8validate: wall-clock workload duration")
	)
	flag.Parse()

	scale := experiments.Scale{
		TopoDiv:         *topoDiv,
		TraceDiv:        *traceDiv,
		MaxDuration:     *maxDur,
		PoissonNodes:    *poisson,
		PoissonDuration: *poissonDur,
		SetupRamp:       *ramp,
		Seed:            *seed,
	}

	run := func(name string) bool { return *which == "all" || *which == name }
	out := os.Stdout
	start := time.Now()

	if run("fig3") {
		r := experiments.Fig3FailureRates(scale)
		experiments.PrintRows(out, "Figure 3: node failure rates (per node per second)",
			[]string{"meanRate", "peakToTrough"}, r.Rows())
		fmt.Fprintln(out, "paper: Gnutella/OverNet peak ~3e-4, Microsoft ~1.5e-5; clear daily waves")
	}
	if run("topo") {
		r := experiments.TopologyComparison(scale)
		experiments.PrintRows(out, "§5.3 Network topology (Gnutella trace)",
			experiments.TotalsCols(), r.Rows())
		fmt.Fprintf(out, "paper: RDP 1.45/1.80/2.12 (corpnet/gatech/mercator); ctrl 0.239/0.245/0.256; ordering holds here: %v\n",
			r.RDPOrderingHolds())
	}
	if run("fig4") {
		r := experiments.Fig4Traces(scale)
		experiments.PrintRows(out, "Figure 4: real-world traces", experiments.TotalsCols(), r.Rows())
		experiments.PrintRows(out, "Figure 4 (right): Gnutella control breakdown",
			[]string{"msgsPerNodeSec"}, r.BreakdownRows())
		fmt.Fprintf(out, "paper: RDP ~flat per trace (self-tuning); Microsoft control ~3x lower.\n")
		fmt.Fprintf(out, "gnutella RDP peak/trough across windows: %.2f\n", r.RDPFlatness("gnutella"))
	}
	if run("fig5") {
		r := experiments.Fig5SessionTimes(scale)
		experiments.PrintRows(out, "Figure 5 (left/centre): Poisson session-time sweep",
			experiments.TotalsCols(), r.Rows())
		fmt.Fprintf(out, "paper: control 22x higher at 15min vs 600min (here %.1fx); RDP +40%% from 600m to 15m; RDP jumps at 5m\n",
			r.ControlRatio(15*time.Minute, 600*time.Minute))
	}
	if run("fig5join") {
		r := experiments.Fig5JoinLatency(scale)
		experiments.PrintRows(out, "Figure 5 (right): join latency CDF", []string{"p50sec", "p90sec", "p99sec"},
			[]experiments.Row{
				cdfRow("session=5m", r, 5*time.Minute),
				cdfRow("session=30m", r, 30*time.Minute),
			})
		fmt.Fprintln(out, "paper: nodes join within tens of seconds")
	}
	if run("fig6") {
		r := experiments.Fig6NetworkLoss(scale)
		experiments.PrintRows(out, "Figure 6: network loss sweep (Gnutella/GATech)",
			experiments.TotalsCols(), r.Rows())
		fmt.Fprintln(out, "paper: lookup loss 1.5e-5 -> 3.3e-5 from 0% to 5%; incorrect 0 at <=1%, 1.6e-5 at 5%")
	}
	if run("fig7l") {
		r := experiments.Fig7LeafSet(scale)
		experiments.PrintRows(out, "Figure 7 (left/centre): leaf set size sweep",
			experiments.TotalsCols(), r.Rows())
		fmt.Fprintln(out, "paper: control +7% from l=16 to l=32 (structured heartbeats); RDP falls with l")
	}
	if run("fig7b") {
		r := experiments.Fig7Digits(scale)
		experiments.PrintRows(out, "Figure 7 (right): digit bits sweep",
			experiments.TotalsCols(), r.Rows())
		fmt.Fprintln(out, "paper: RDP ~3.1 at b=1 falling to ~1.8 at b=4; control nearly flat")
	}
	if run("ablation") {
		r := experiments.AblationProbingAcks(scale)
		experiments.PrintRows(out, "§5.3 probing/acks ablation (Gnutella)",
			experiments.TotalsCols(), r.Rows())
		fmt.Fprintln(out, "paper: loss 32% with neither; 2.8e-5 acks-only; 1.6e-5 both; probing-only cannot reach 1e-5")
	}
	if run("selftune") {
		r := experiments.SelfTuning(scale)
		experiments.PrintRows(out, "§5.3 self-tuning to target raw loss (acks off)",
			append(experiments.TotalsCols(), "target"), r.Rows())
		fmt.Fprintln(out, "paper: measured 5.3% at 5% target, 1.2% at 1%; 2.6x control from 5%->1%")
	}
	if run("suppression") {
		r := experiments.Suppression(scale)
		experiments.PrintRows(out, "§5.3 probe suppression vs lookup rate",
			append(experiments.TotalsCols(), "suppressed"), r.Rows())
		fmt.Fprintln(out, "paper: >70% of probes suppressed at 1 lookup/s/node")
	}
	if run("heartbeat") {
		r := experiments.HeartbeatAblation(scale)
		experiments.PrintRows(out, "§4.1 structured vs all-pairs heartbeats",
			experiments.TotalsCols(), r.Rows())
		fmt.Fprintln(out, "design claim: structured heartbeats make leaf-set maintenance independent of l")
	}
	if run("massfailure") {
		cfg := experiments.DefaultMassFailureConfig()
		cfg.Seed = *seed
		r := experiments.MassFailure(cfg)
		fmt.Fprintf(out, "\n== §3.1 generalised repair: massive correlated failure ==\n")
		fmt.Fprintf(out, "killed %d of %d nodes at one instant; recovered=%v in %v; %d leaf msgs (%d per survivor)\n",
			r.Killed, r.Nodes, r.Recovered, r.RecoveryTime, r.ProbeMessages, r.ProbeMessages/(r.Nodes-r.Killed))
		fmt.Fprintln(out, "paper claim: repair converges in O(log N) iterations even when a large")
		fmt.Fprintln(out, "fraction of overlay nodes fails simultaneously")
	}
	if run("partitionheal") {
		r := experiments.PartitionHeal(scale, *partFor)
		experiments.PrintRows(out, fmt.Sprintf("fault injection: 50/50 partition for %v", *partFor),
			experiments.PhaseCols(), r.Rows())
		fmt.Fprintf(out, "(recovery row: issued=repaired flag, delivered=time-to-repair sec, incorrect=partition drops)\n")
		fmt.Fprintf(out, "repaired=%v time-to-repair=%v\n", r.Recovery.Repaired, r.Recovery.TimeToRepair().Round(time.Second))
		fmt.Fprintln(out, "claim: lookups misdeliver only while the overlay is split or repairing;")
		fmt.Fprintln(out, "after repair, incorrect deliveries return to zero")
	}
	if run("jitterfp") {
		r := experiments.JitterFalsePositives(scale, nil)
		experiments.PrintRows(out, "fault injection: delay-spike false positives (hold-on-suspect vs naive)",
			append(experiments.TotalsCols(), "gapOrders"), r.Rows())
		fmt.Fprintln(out, "claim: delay spikes above the retransmission timeout make live nodes look")
		fmt.Fprintln(out, "dead; the hold-on-suspect rule keeps incorrect deliveries >=3 orders of")
		fmt.Fprintln(out, "magnitude below naive immediate delivery")
	}
	if run("consistency") {
		r := experiments.ConsistencyRule(scale)
		experiments.PrintRows(out, "§3.2 consistency rule under 5% link loss",
			experiments.TotalsCols(), r.Rows())
		fmt.Fprintln(out, "claim: holding delivery while a closer node is suspected keeps")
		fmt.Fprintln(out, "incorrect deliveries at the 1e-5 scale; delivering immediately does not")
	}
	if run("antientropy") {
		r := experiments.AntiEntropy(scale, *aeNodes, *aeObjects)
		experiments.PrintRows(out,
			fmt.Sprintf("Anti-entropy vs full-push sweep maintenance (%d nodes, %d objects, %v window)",
				r.Nodes, r.Objects, r.Window.Round(time.Second)),
			experiments.AntiEntropyCols(), r.Rows())
		fmt.Fprintf(out, "maintenance bytes reduced %.1fx by Merkle reconciliation (bar: >= 5x)\n", r.Reduction())
		fmt.Fprintln(out, "claim: sweeps cost one digest exchange per replica pair when converged,")
		fmt.Fprintln(out, "full values move only for keys that actually diverged")
	}
	if run("batching") {
		r := experiments.Batching(scale, *coWin, *coLong)
		experiments.PrintRows(out,
			fmt.Sprintf("wire coalescing A/B (Tls=%v, window=%v, long=%v)",
				experiments.BatchingTls, r.Window, r.Long),
			append(experiments.TotalsCols(), "datagrams", "ctrlDgrams", "ctrlBytes", "savedB"),
			r.Rows())
		fmt.Fprintf(out, "control datagrams reduced %.1f%% (bar: >= 25%%) with lookup success and hops unchanged\n",
			r.ControlDatagramReduction()*100)
		fmt.Fprintln(out, "claim: under aggressive failure detection, heartbeats to the ring")
		fmt.Fprintln(out, "neighbour batch under the long window — the paper's suppression rule")
		fmt.Fprintln(out, "extended to piggybacking — without touching routing behaviour")
	}
	if run("overload") {
		cfg := experiments.DefaultOverloadConfig(scale)
		r := experiments.Overload(cfg)
		experiments.PrintRows(out,
			fmt.Sprintf("Overload & graceful degradation (%d nodes, capacity %d msgs @ %.0f/s, %v churn burst)",
				cfg.Nodes, cfg.Service.QueueLimit, cfg.Service.Rate, time.Duration(float64(cfg.Duration)*cfg.BurstFraction).Round(time.Minute)),
			experiments.OverloadCols(), r.Rows())
		fmt.Fprintf(out, "success at 5x load = %.2f of the 1x baseline (bar: >= 0.80)\n",
			r.DegradationRatio(1, 5))
		fmt.Fprintln(out, "claim: bounded lane queues shed bulk and lookups before liveness traffic,")
		fmt.Fprintln(out, "retry budgets cap the per-peer retransmission rate, and circuit breakers")
		fmt.Fprintln(out, "route around saturated peers — so load past capacity degrades throughput")
		fmt.Fprintln(out, "smoothly instead of collapsing the failure detector")
	}
	if run("secure") {
		cfg := experiments.DefaultSecureConfig(scale)
		r := experiments.Secure(cfg)
		experiments.PrintRows(out,
			fmt.Sprintf("Secure routing under Byzantine peers (%d nodes, %v, lookups %g/s)",
				cfg.Nodes, cfg.Duration, cfg.LookupRate),
			experiments.SecureCols(), r.Rows())
		fmt.Fprintf(out, "defended success at f=0.1 = %.4f of the f=0 baseline (bar: >= 0.99); failure-test false positives at f=0: %.2e\n",
			r.RestorationRatio(0.1), r.FalsePositiveRate())
		fmt.Fprintln(out, "claim: the routing failure test (leaf-set density vs the origin's own")
		fmt.Fprintln(out, "estimate) flags forged root claims, redundant neighbour-diverse rounds")
		fmt.Fprintln(out, "route around the colluders, and confirmed liars feed the breakers")
	}
	if run("hotspot") {
		cfg := experiments.DefaultHotspotConfig(scale)
		if *hsNodes > 0 {
			cfg.Nodes = *hsNodes
		}
		if *hsDur > 0 {
			cfg.Duration = *hsDur
		}
		r := experiments.Hotspot(scale, cfg)
		experiments.PrintRows(out,
			fmt.Sprintf("Hotspot mitigation: path caching under zipf(%.1f) (%d nodes, %d keys, %v window)",
				r.ZipfS, r.Nodes, r.Keys, r.Window.Round(time.Second)),
			experiments.HotspotCols(), r.Rows())
		fmt.Fprintf(out, "hot root load factor relieved %.1fx by path caching (bar: >= 2x)\n", r.Relief())
		fmt.Fprintln(out, "claim: Get replies deposited on the first and penultimate route hops")
		fmt.Fprintln(out, "short-circuit hot-key lookups before they converge on the key's root,")
		fmt.Fprintln(out, "version supersession plus the sweep backstop bound staleness to one")
		fmt.Fprintln(out, "sweep interval, and read floors keep per-client reads monotonic")
	}
	if run("fig8") {
		cfg := experiments.DefaultFig8Config()
		cfg.Days = *fig8Days
		cfg.Seed = *seed
		r := experiments.Fig8Squirrel(cfg)
		fmt.Fprintf(out, "\n== Figure 8: Squirrel total traffic per node (52 machines, %d days) ==\n", cfg.Days)
		fmt.Fprintf(out, "%-10s %10s %8s %10s\n", "window", "msgs/n/s", "active", "requests")
		for _, w := range r.Windows {
			fmt.Fprintf(out, "%-10s %10.4f %8.1f %10d\n",
				w.Start.Round(time.Minute), w.TotalPerNodeSec, w.Active, w.Requests)
		}
		fmt.Fprintf(out, "requests=%d originFetches=%d\n", r.Requests, r.OriginFetches)
		fmt.Fprintln(out, "paper: clear weekday/weekend pattern in total traffic; sim matches deployment")
	}
	if run("fig8validate") {
		r, err := experiments.Fig8Validation(*validateN, *validateDur, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "\n== Figure 8 validation: simulator vs real UDP deployment ==\n")
		fmt.Fprintf(out, "nodes=%d duration=%v sim=%d msgs live=%d msgs live/sim=%.2f\n",
			r.Nodes, r.Duration, r.SimMessages, r.LiveMessages, r.Ratio())
		fmt.Fprintln(out, "paper: 'the simulation results are very similar to the statistics")
		fmt.Fprintln(out, "obtained from the real deployment'")
	}

	if *which != "all" && !isKnown(*which) {
		log.Fatalf("unknown experiment %q", *which)
	}
	fmt.Fprintf(out, "\ncompleted in %v\n", time.Since(start).Round(time.Second))
}

func cdfRow(label string, r experiments.Fig5JoinCDF, session time.Duration) experiments.Row {
	return experiments.Row{Label: label, Values: map[string]float64{
		"p50sec": r.Percentile(session, 0.5).Seconds(),
		"p90sec": r.Percentile(session, 0.9).Seconds(),
		"p99sec": r.Percentile(session, 0.99).Seconds(),
	}}
}

func isKnown(name string) bool {
	known := "all fig3 topo fig4 fig5 fig5join fig6 fig7l fig7b ablation selftune suppression heartbeat consistency massfailure partitionheal jitterfp antientropy batching overload secure hotspot fig8 fig8validate"
	for _, k := range strings.Fields(known) {
		if k == name {
			return true
		}
	}
	return false
}
