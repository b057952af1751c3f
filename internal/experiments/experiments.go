// Package experiments is the registry of the paper's evaluation (§5) and
// of the dependability experiments added since: All has one entry per
// table or figure, and every entry is the same move — one seeded
// configuration, one parameter varied, one row per run. An entry's Run
// builds its workload through the harness, mounting an application layer
// with a harness.App when it needs one, and returns a Report: the tables
// the paper plots plus the headline numbers its text quotes.
//
// The mspastry-bench command and the root BenchmarkExperiments both loop
// over All; adding an experiment is one entry here, its run function and
// its EXPERIMENTS.md section.
//
// The paper's absolute numbers came from the authors' testbed and full
// 2,000-20,000 node populations; we reproduce the *shape* (orderings,
// ratios, crossovers), not the absolute values. EXPERIMENTS.md records
// both.
package experiments

import (
	"fmt"
	"io"
	"time"

	"mspastry/internal/harness"
	"mspastry/internal/trace"
)

// Experiment is one row of the registry.
type Experiment struct {
	// Name selects the experiment (mspastry-bench -experiment, the
	// sub-benchmark name) and heads its EXPERIMENTS.md section.
	Name string
	// Title says what is reproduced; it heads the printed tables.
	Title string
	// Paper is what the paper reports ("paper: …") or the claim under
	// test ("claim: …"), printed under the tables for comparison.
	Paper string
	// Live marks an experiment that runs on real sockets in wall-clock
	// time: not reproducible from its seed, so benchmarks and golden
	// tables leave it out.
	Live bool
	Run  func(Scale) (Report, error)
}

// Report is what every experiment produces.
type Report struct {
	Tables []Table
	// Headlines are the numbers the paper's text (or the experiment's
	// acceptance bar) quotes, in a fixed order; names carry no spaces so
	// they double as benchmark metric units.
	Headlines []Headline
}

// Table is one printable table; an empty Title means the experiment's.
type Table struct {
	Title string
	Cols  []string
	Rows  []Row
}

// Row is one printable result row.
type Row struct {
	Label  string
	Values map[string]float64
}

// Headline is one named number.
type Headline struct {
	Name  string
	Value float64
}

// All lists every experiment, in the order of the paper's evaluation
// followed by the dependability experiments in the order they were added.
var All = []Experiment{
	{Name: "fig3", Title: "Figure 3: node failure rates (per node per second)", Run: fig3,
		Paper: "paper: Gnutella/OverNet peak ~3e-4, Microsoft ~1.5e-5; clear daily waves"},
	{Name: "topo", Title: "§5.3 Network topology (Gnutella trace)", Run: topologies,
		Paper: "paper: RDP 1.45/1.80/2.12 (corpnet/gatech/mercator); ctrl 0.239/0.245/0.256; loss below 1.6e-5 everywhere"},
	{Name: "fig4", Title: "Figure 4: real-world traces", Run: fig4,
		Paper: "paper: RDP ~flat per trace (self-tuning); Microsoft control ~3x lower"},
	{Name: "fig5", Title: "Figure 5 (left/centre): Poisson session-time sweep", Run: fig5,
		Paper: "paper: control 22x higher at 15min vs 600min, dipping again at 5min (nodes die before activating); RDP +40% from 600m to 15m; RDP jumps at 5m"},
	{Name: "fig5join", Title: "Figure 5 (right): join latency CDF", Run: fig5join,
		Paper: "paper: nodes join within tens of seconds"},
	{Name: "fig6", Title: "Figure 6: network loss sweep (Gnutella/GATech)", Run: fig6,
		Paper: "paper: lookup loss 1.5e-5 -> 3.3e-5 from 0% to 5%; incorrect 0 at <=1%, 1.6e-5 at 5%; RDP and control rise slightly"},
	{Name: "fig7l", Title: "Figure 7 (left/centre): leaf set size sweep", Run: fig7l,
		Paper: "paper: control +7% from l=16 to l=32 (structured heartbeats); RDP falls with l"},
	{Name: "fig7b", Title: "Figure 7 (right): digit bits sweep", Run: fig7b,
		Paper: "paper: RDP ~3.1 at b=1 falling to ~1.8 at b=4 (expected hops (2^b-1)/2^b*log_2^b N); control nearly flat"},
	{Name: "ablation", Title: "§5.3 probing/acks ablation (Gnutella)", Run: ablation,
		Paper: "paper: loss 32% with neither; 2.8e-5 acks-only; 1.6e-5 both; probing-only cannot reach 1e-5"},
	{Name: "selftune", Title: "§5.3 self-tuning to target raw loss (acks off)", Run: selfTuning,
		Paper: "paper: measured 5.3% at 5% target, 1.2% at 1%; 2.6x control from 5%->1%"},
	{Name: "suppression", Title: "§5.3 probe suppression vs lookup rate", Run: suppression,
		Paper: "paper: >70% of probes suppressed at 1 lookup/s/node"},
	{Name: "heartbeat", Title: "§4.1 structured vs all-pairs heartbeats", Run: heartbeats,
		Paper: "design claim: structured heartbeats make leaf-set maintenance independent of l"},
	{Name: "massfailure", Title: "§3.1 generalised repair: massive correlated failure", Run: massFailure,
		Paper: "paper: repair converges in O(log N) iterations even when a large fraction of overlay nodes fails simultaneously"},
	{Name: "partitionheal", Title: "fault injection: 50/50 partition for " + partitionFor.String(), Run: partitionHeal,
		Paper: "claim: lookups misdeliver only while the overlay is split or repairing; after repair, incorrect deliveries return to zero"},
	{Name: "jitterfp", Title: "fault injection: delay-spike false positives (hold-on-suspect vs naive)", Run: jitterFalsePositives,
		Paper: "claim: delay spikes above the retransmission timeout make live nodes look dead; the hold-on-suspect rule keeps incorrect deliveries >=3 orders of magnitude below naive immediate delivery"},
	{Name: "consistency", Title: "§3.2 consistency rule under 5% link loss", Run: consistencyRule,
		Paper: "claim: holding delivery while a closer node is suspected keeps incorrect deliveries at the 1e-5 scale; delivering immediately does not"},
	{Name: "antientropy", Title: "Anti-entropy vs full-push sweep maintenance", Run: antiEntropy,
		Paper: "claim: sweeps cost one digest exchange per replica pair when converged, full values move only for keys that actually diverged (bar: reduction >= 5x)"},
	{Name: "overload", Title: "Overload & graceful degradation", Run: overloadSweep,
		Paper: "claim: bounded lane queues shed bulk and lookups before liveness traffic, retry budgets cap the per-peer retransmission rate, and circuit breakers route around saturated peers — so load past capacity degrades throughput smoothly instead of collapsing the failure detector (bar: success at 5x >= 0.80 of 1x)"},
	{Name: "secure", Title: "Secure routing under Byzantine peers", Run: secureSweep,
		Paper: "claim: the routing failure test (leaf-set density vs the origin's own estimate) flags forged root claims, redundant neighbour-diverse rounds route around the colluders, and confirmed liars feed the breakers (bar: defended success at f=0.1 >= 0.99 of f=0)"},
	{Name: "hotspot", Title: "Hotspot mitigation: path caching under zipf", Run: hotspotRelief,
		Paper: "claim: Get replies deposited on the first and penultimate route hops short-circuit hot-key lookups before they converge on the key's root, version supersession plus the sweep backstop bound staleness to one sweep interval, and read floors keep per-client reads monotonic (bar: relief >= 2x)"},
	{Name: "fig8", Title: "Figure 8: Squirrel total traffic per node (52 machines)", Run: fig8,
		Paper: "paper: clear weekday/weekend pattern in total traffic; sim matches deployment"},
	{Name: "fig8validate", Title: "Figure 8 validation: simulator vs real UDP deployment", Run: fig8Validate, Live: true,
		Paper: "paper: 'the simulation results are very similar to the statistics obtained from the real deployment'"},
}

// Fprint renders a report the way mspastry-bench shows it: the tables,
// the headline numbers, then what the paper says. Write errors are
// dropped: w is the terminal or a test's buffer.
func (e Experiment) Fprint(w io.Writer, r Report) {
	for _, t := range r.Tables {
		title := t.Title
		if title == "" {
			title = e.Title
		}
		fmt.Fprintf(w, "\n== %s ==\n%-26s", title, "label")
		for _, c := range t.Cols {
			fmt.Fprintf(w, " %13s", c)
		}
		fmt.Fprintln(w)
		for _, row := range t.Rows {
			fmt.Fprintf(w, "%-26s", row.Label)
			for _, c := range t.Cols {
				fmt.Fprintf(w, " %13.6g", row.Values[c])
			}
			fmt.Fprintln(w)
		}
	}
	for _, h := range r.Headlines {
		fmt.Fprintf(w, "%s = %.6g\n", h.Name, h.Value)
	}
	fmt.Fprintln(w, e.Paper)
}

// Scale controls how much the experiments are shrunk relative to the
// paper's setup.
type Scale struct {
	// TopoDiv divides the topology size (1 = paper size).
	TopoDiv int
	// TraceDiv divides trace populations (1 = paper size).
	TraceDiv int
	// MaxDuration caps trace length (0 = full length).
	MaxDuration time.Duration
	// PoissonNodes is the average population for the artificial traces
	// (paper: 10,000).
	PoissonNodes int
	// PoissonDuration is the artificial traces' length.
	PoissonDuration time.Duration
	// SetupRamp spreads the warm-start joins.
	SetupRamp time.Duration
	// Seed drives all randomness.
	Seed int64

	// HotspotNodes and HotspotDuration shape the hotspot cluster and its
	// measurement window (0 = derived from PoissonNodes, 6 minutes).
	HotspotNodes    int
	HotspotDuration time.Duration
}

// measuredFamilies are the paper's three measured churn traces, in the
// order of its Figures 3 and 4.
var measuredFamilies = []string{"gnutella", "overnet", "microsoft"}

// measured generates a measured trace family at this scale and returns the
// window its figures average over. OverNet is already small (1,468 nodes)
// and is shrunk less. Microsoft is the biggest (20,000 nodes) and is
// shrunk more; its failure rate is an order of magnitude lower, so it is
// averaged hourly.
func (s Scale) measured(family string) (*trace.Trace, time.Duration) {
	cfg, err := trace.Family(family, 0, 0, 0)
	if err != nil {
		panic(err)
	}
	div, window := s.TraceDiv, 10*time.Minute
	switch family {
	case "overnet":
		div = max(1, div/4)
	case "microsoft":
		div, window = div*6, time.Hour
	}
	return trace.Generate(cfg.Scaled(div, s.MaxDuration)), window
}

func (s Scale) poisson(session time.Duration) *trace.Trace {
	return trace.Generate(trace.Poisson(session, s.PoissonNodes, s.PoissonDuration))
}

// staticDuration is the run length of the experiments that drive a
// churn-free overlay (overload, secure): half the Poisson length, at least
// 20 minutes, within MaxDuration.
func (s Scale) staticDuration() time.Duration {
	dur := s.PoissonDuration / 2
	if dur < 20*time.Minute {
		dur = 20 * time.Minute
	}
	if s.MaxDuration > 0 && dur > s.MaxDuration {
		dur = s.MaxDuration
	}
	return dur
}

// baseConfig returns the paper's base experiment configuration at this
// scale: b=4, l=32, per-hop acks, self-tuning to Lr=5%, 0.01 lookups/s.
// The topology is built afresh on every call because a run attaches its
// endpoints to it.
func (s Scale) baseConfig(topoName string, tr *trace.Trace) harness.Config {
	topo, err := harness.BuildTopology(topoName, max(1, s.TopoDiv), s.Seed)
	if err != nil {
		panic(err)
	}
	cfg := harness.DefaultConfig(topo, tr)
	cfg.SetupRamp = s.SetupRamp
	cfg.Seed = s.Seed
	return cfg
}

// base returns a sweep's starting point: baseConfig over the named
// topology. A nil trace leaves the trace for the sweep to vary.
func (s Scale) base(topoName string, tr *trace.Trace) func() harness.Config {
	return func() harness.Config { return s.baseConfig(topoName, tr) }
}

// onGnutella is the base of most sweeps: the Gnutella trace over GATech.
func (s Scale) onGnutella() func() harness.Config {
	tr, _ := s.measured("gnutella")
	return s.base("gatech", tr)
}

// sweep is the move every experiment makes: n runs, each from a fresh
// base configuration with one parameter changed by mutate.
func sweep(n int, base func() harness.Config, mutate func(i int, cfg *harness.Config)) []harness.Result {
	out := make([]harness.Result, n)
	for i := range out {
		cfg := base()
		mutate(i, &cfg)
		out[i] = harness.Run(cfg)
	}
	return out
}

// labelf formats one label per swept value.
func labelf[T any](format string, vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

// stableTrace returns a churn-free trace — n nodes active for the whole
// run — so fault, overload and adversary effects are not confounded with
// churn.
func stableTrace(name string, n int, d time.Duration) *trace.Trace {
	tr := &trace.Trace{Name: name, Duration: d, Nodes: n}
	for i := 0; i < n; i++ {
		tr.Initial = append(tr.Initial, i)
	}
	return tr
}

// totalsTable renders one run per row in the standard totals columns;
// extra names further columns whose values the caller fills in.
func totalsTable(labels []string, res []harness.Result, extra ...string) Table {
	t := Table{Cols: append([]string{"active", "loss", "incorrect", "rdp", "hops", "ctrl", "trtSec"}, extra...)}
	for i, r := range res {
		t.Rows = append(t.Rows, Row{Label: labels[i], Values: map[string]float64{
			"active":    r.Totals.MeanActive,
			"loss":      r.Totals.LossRate(),
			"incorrect": r.Totals.IncorrectRate(),
			"rdp":       r.Totals.RDP,
			"hops":      r.Totals.MeanHops,
			"ctrl":      r.Totals.ControlPerNodeSec,
			"trtSec":    r.TrtMedian.Seconds(),
		}})
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (an empty run has no ratio to report).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// extremes returns the smallest and largest positive value, 0 and 0 when
// there is none: the trough and peak of a daily wave.
func extremes(vals []float64) (lo, hi float64) {
	for _, v := range vals {
		if v <= 0 {
			continue
		}
		if lo == 0 || v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func flag01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
