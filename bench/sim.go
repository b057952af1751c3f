package main

import (
	"fmt"
	"math"
	"time"

	"mspastry/internal/harness"
	"mspastry/internal/telemetry"
	"mspastry/internal/topology"
	"mspastry/internal/trace"
)

// Fixed parts of the simulated workloads. The seed argument draws the node
// identifiers, join times and lookup keys (harness.Config.Seed); topology
// and churn schedule are part of the workload's definition and keep their
// own seeds, because a different draw of either changes how much work a
// run is (±12% events across churn schedules) and would be read as noise.
const (
	topoSeed       = 1
	churnTraceSeed = 4 // trace.Poisson's default
	delayHistogram = "mspastry_lookup_delay_seconds"
)

// simWorkload describes a simulated workload: one repetition is one
// harness.Run of the configuration below.
type simWorkload struct {
	name       string
	nodes      int
	session    time.Duration // mean Poisson session; 0 means nobody leaves
	lookupRate float64       // lookups per second per node
	window     time.Duration // simulated time measured after the ramp
	repSeconds float64       // host seconds one repetition takes on the reference box
	// nodeSecondOps selects the unit of work: simulated active
	// node-seconds (maintenance-bound workloads) instead of correctly
	// delivered lookups.
	nodeSecondOps bool
	// noBreakers turns the per-peer circuit breakers off. With them on, a
	// static loss-free overlay silently loses about 1 lookup in 50 000
	// (held behind a suspected peer, never delivered, never reported
	// dropped; 0 in 1.3 million with them off), and the benchmark wants
	// workloads on which no operation fails.
	noBreakers bool
}

var simLookup = simWorkload{
	name: "sim-lookup", nodes: 300, lookupRate: 1,
	window: 3 * time.Minute, repSeconds: 2.4, noBreakers: true,
}

var simChurn = simWorkload{
	name: "sim-churn", nodes: 300, session: 15 * time.Minute, lookupRate: 0.01,
	window: 4 * time.Minute, repSeconds: 3.0, nodeSecondOps: true,
}

func (w simWorkload) label() string { return w.name }

func (w simWorkload) timedReps(seconds int) int { return repsFor(seconds, w.repSeconds, minSimReps) }

// quick shrinks the workload to about a tenth of its work for smoke tests.
func (w simWorkload) quick() workload {
	w.nodes /= 3
	w.window /= 3
	return w
}

// churn returns the workload's churn schedule over the given simulated
// duration.
func (w simWorkload) churn(d time.Duration) *trace.Trace {
	if w.session == 0 {
		// A static population: with any finite session time some seeds
		// crash a node that holds a lookup, and the benchmark wants
		// workloads on which no operation fails.
		tr := &trace.Trace{Name: "static", Duration: d, Nodes: w.nodes}
		for i := 0; i < w.nodes; i++ {
			tr.Initial = append(tr.Initial, i)
		}
		return tr
	}
	tc := trace.Poisson(w.session, w.nodes, d)
	tc.Seed = churnTraceSeed
	return trace.Generate(tc)
}

// config builds the harness configuration for one run over window of
// measured simulated time. Every call returns a configuration that
// produces a bit-identical run.
func (w simWorkload) config(topo *topology.Network, seed int64, window time.Duration) harness.Config {
	cfg := harness.DefaultConfig(topo, w.churn(window))
	cfg.Seed = seed
	cfg.LookupRate = w.lookupRate
	cfg.Window = window
	if w.noBreakers {
		cfg.Pastry.BreakerThreshold = 0
	}
	// A registry per run, as mspastry-sim -metrics-dump does: the
	// per-lookup telemetry is part of what a researcher pays for.
	cfg.Telemetry = telemetry.NewRegistry()
	return cfg
}

// buildTopology builds CorpNet, the smallest of the paper's topologies and
// the one the repository's other benchmarks use.
func buildTopology() (*topology.Network, error) {
	return harness.BuildTopology("corpnet", 1, topoSeed)
}

// setup is what a simulated experiment needs before its measured
// window: the topology and a run of the N-node join ramp. harness.Run is
// one call, so the ramp is also inside every timed repetition; set-up
// measures it in isolation with a one-simulated-second window.
func (w simWorkload) setup(seed int64) (*topology.Network, error) {
	topo, err := buildTopology()
	if err != nil {
		return nil, err
	}
	harness.Run(w.config(topo, seed, time.Second))
	return topo, nil
}

// simOutcome is what one repetition produced.
type simOutcome struct {
	res     harness.Result
	delay   *telemetry.Histogram
	ops     int
	nodeSec float64
}

func (w simWorkload) runOnce(topo *topology.Network, seed int64) simOutcome {
	cfg := w.config(topo, seed, w.window)
	res := harness.Run(cfg)
	t := res.Totals
	o := simOutcome{
		res:     res,
		delay:   cfg.Telemetry.Histogram(delayHistogram, "", telemetry.DefBuckets),
		nodeSec: t.MeanActive * w.window.Seconds(),
	}
	if w.nodeSecondOps {
		o.ops = int(math.Round(o.nodeSec))
	} else {
		o.ops = t.Delivered - t.Incorrect
	}
	return o
}

// fingerprint renders every protocol-level number of a run; repetitions of
// one seeded configuration must produce the same string.
func (o simOutcome) fingerprint() string {
	return fmt.Sprintf("%+v events=%d p50=%v p99=%v", o.res.Totals, o.res.SimEvents,
		o.delay.Quantile(0.5), o.delay.Quantile(0.99))
}

// attemptedFailed counts the run's operations. On a lookup workload every
// resolved lookup is an attempt, and a lost or wrongly delivered one a
// failure (lookups still in flight when the window closes are neither).
// On a node-second workload the lookups are background probes: a node that
// crashes while holding one loses it by design, so only deliveries at a
// wrong root — which the protocol promises never happen without network
// loss — count as failures.
func (w simWorkload) attemptedFailed(o simOutcome) (attempted, failed int) {
	t := o.res.Totals
	if w.nodeSecondOps {
		return o.ops, t.Incorrect
	}
	return t.Delivered + t.Lost, t.Incorrect + t.Lost
}

// protocolMetrics fills the end-to-end metrics that are simulated
// quantities, identical in every repetition.
func (w simWorkload) protocolMetrics(o simOutcome, m map[string]float64) {
	t := o.res.Totals
	attempted, failed := w.attemptedFailed(o)
	m["success_rate"] = float64(attempted-failed) / float64(attempted)
	m["mean_hops"] = t.MeanHops
	m["lat_p50_us"] = 1e6 * o.delay.Quantile(0.5)
	m["datagrams_per_op"] = t.DatagramsPerNodeSec * o.nodeSec / float64(o.ops)
}

// run measures the workload's end-to-end metrics.
func (w simWorkload) run(seed int64, reps, setups int) (result, error) {
	var r result
	m := map[string]float64{}
	setupS, topo, err := timeSetup(setups, func() (*topology.Network, error) { return w.setup(seed) },
		func(*topology.Network) {})
	if err != nil {
		return r, err
	}
	m["setup_s"] = setupS

	var timed []repSample
	var first simOutcome
	for i := 0; i <= reps; i++ {
		var o simOutcome
		s := measureRep(func() int {
			o = w.runOnce(topo, seed)
			return o.ops
		})
		printRep(i, i == 0, s)
		if i == 0 {
			first = o
			t := o.res.Totals
			fmt.Printf("lookups: issued=%d delivered=%d incorrect=%d lost=%d; events=%d node_seconds=%.1f rdp=%.4f control_msgs_per_node_s=%.4f\n",
				t.Issued, t.Delivered, t.Incorrect, t.Lost, o.res.SimEvents, o.nodeSec, t.RDP, t.ControlPerNodeSec)
			continue
		}
		if got, want := o.fingerprint(), first.fingerprint(); got != want {
			r.problems = append(r.problems, fmt.Sprintf("rep %d differs from rep 0:\n  %s\n  %s", i, got, want))
		}
		timed = append(timed, s)
	}
	costMetrics(timed, m)
	w.protocolMetrics(first, m)
	a, f := w.attemptedFailed(first)
	r.attempted, r.failed = a*len(timed), f*len(timed)
	r.metrics = m
	return r, nil
}
