// Command mspastry-sim runs one MSPastry simulation experiment and prints
// the windowed evaluation metrics (§5.2 of the paper): relative delay
// penalty, control traffic per node, lookup loss rate and incorrect
// delivery rate. The paper's parameter sweeps and ablations (b, l, Tls,
// per-hop acks, probing, self-tuning target, jitter) are registry
// experiments: see mspastry-bench.
//
// Examples:
//
//	mspastry-sim -trace gnutella -trace-div 16 -max-dur 2h
//	mspastry-sim -trace poisson -session 30m -nodes 500 -duration 2h
//	mspastry-sim -trace overnet -topo mercator -loss 0.05
//	mspastry-sim -trace poisson -malicious-frac 0.1 -secure-routing
//
// Fault injection (both faults share the -fault-at/-fault-dur window,
// measured from the end of the setup ramp):
//
//	mspastry-sim -fault-at 30m -fault-dur 2m -partition-frac 0.5
//	mspastry-sim -fault-at 30m -fault-dur 1m -spike 1s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"mspastry/internal/harness"
	"mspastry/internal/netmodel"
	"mspastry/internal/overload"
	"mspastry/internal/pastry"
	"mspastry/internal/stats"
	"mspastry/internal/telemetry"
	"mspastry/internal/trace"
)

// setupRamp is the warm start: the trace's initially-active nodes join
// over this long before measurement begins.
const setupRamp = 5 * time.Minute

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit code: 2 for a rejected command line (nothing has been built yet),
// 1 for a failure once running.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mspastry-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topoName = fs.String("topo", "gatech", "topology: gatech, mercator, corpnet")
		topoDiv  = fs.Int("topo-div", 8, "topology scale divisor (1 = paper size)")
		traceSel = fs.String("trace", "gnutella", "churn trace: gnutella, overnet, microsoft, poisson")
		traceDiv = fs.Int("trace-div", 16, "trace population divisor (1 = paper size)")
		maxDur   = fs.Duration("max-dur", 2*time.Hour, "cap on trace duration (0 = full trace)")
		session  = fs.Duration("session", 30*time.Minute, "poisson trace: mean session time")
		nodes    = fs.Int("nodes", 500, "poisson trace: average active nodes")
		duration = fs.Duration("duration", 2*time.Hour, "poisson trace: duration")
		loss     = fs.Float64("loss", 0, "uniform network message loss rate [0,1)")
		lookups  = fs.Float64("lookups", 0.01, "lookups per second per node")
		workload = fs.String("workload", "uniform", "lookup key distribution: uniform, zipf")
		zipfS    = fs.Float64("zipf-s", 1.0, "zipf exponent for -workload zipf")
		zipfKeys = fs.Int("zipf-keys", 1024, "popular key set size for -workload zipf")
		seed     = fs.Int64("seed", 1, "random seed")

		faultAt  = fs.Duration("fault-at", 0, "fault window start, measured from the end of the ramp (0 = no faults)")
		faultDur = fs.Duration("fault-dur", time.Minute, "fault window duration")
		partFrac = fs.Float64("partition-frac", 0, "partition this fraction of nodes away from the rest (0 = none)")
		spike    = fs.Duration("spike", 0, "fixed extra delay during the fault window")

		svcQueue = fs.Int("svc-queue", 0, "per-node service-capacity model: bounded receive queue length (0 = unbounded)")
		svcRate  = fs.Float64("svc-rate", 0, "per-node service-capacity model: messages processed per second (0 = infinite)")

		malFrac  = fs.Float64("malicious-frac", 0, "fraction of nodes that behave maliciously [0,1)")
		secRoute = fs.Bool("secure-routing", false, "enable the routing failure test and redundant diverse-path lookups")

		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		metricsDump = fs.String("metrics-dump", "", "write the telemetry registry in Prometheus text format at exit (\"-\" for stdout)")
		traceLook   = fs.Bool("trace-lookups", false, "record per-lookup hop traces and print route statistics")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return code
	}

	// Reject nonsense before it turns into a wedged run, and before
	// anything is built: a lone -svc-queue or -svc-rate gives a capacity
	// model with either no bound or no drain.
	switch {
	case *topoDiv < 1 || *traceDiv < 1:
		return fail(2, "-topo-div and -trace-div must be >= 1")
	case *maxDur < 0:
		return fail(2, "-max-dur must be >= 0, got %v", *maxDur)
	case *session <= 0 || *duration <= 0 || *nodes < 1:
		return fail(2, "-session and -duration must be positive and -nodes >= 1")
	case *loss < 0 || *loss >= 1:
		return fail(2, "-loss %g outside [0,1)", *loss)
	case *lookups < 0:
		return fail(2, "-lookups must be >= 0, got %g", *lookups)
	case *workload != "uniform" && *workload != "zipf":
		return fail(2, "-workload must be uniform or zipf, got %q", *workload)
	case *zipfS <= 0:
		return fail(2, "-zipf-s must be > 0, got %g", *zipfS)
	case *zipfKeys < 1:
		return fail(2, "-zipf-keys must be >= 1, got %d", *zipfKeys)
	case (*svcQueue > 0) != (*svcRate > 0):
		return fail(2, "-svc-queue and -svc-rate must be set together (got queue=%d rate=%g)", *svcQueue, *svcRate)
	case *svcQueue < 0 || *svcRate < 0:
		return fail(2, "-svc-queue and -svc-rate must be >= 0")
	case *malFrac < 0 || *malFrac >= 1:
		return fail(2, "-malicious-frac %g outside [0,1)", *malFrac)
	case *faultAt > 0 && (*partFrac < 0 || *partFrac >= 1):
		return fail(2, "-partition-frac %g outside [0,1)", *partFrac)
	case *faultAt > 0 && *spike < 0:
		return fail(2, "-spike must be non-negative")
	case *faultAt > 0 && *faultDur <= 0:
		return fail(2, "-fault-dur must be positive")
	}

	tcfg, err := trace.Family(*traceSel, *session, *nodes, *duration)
	if err != nil {
		return fail(2, "%v", err)
	}
	if tcfg.Population > 0 { // a measured family: -trace-div and -max-dur shrink it
		tcfg = tcfg.Scaled(*traceDiv, *maxDur)
	}
	// An unknown -topo is refused here, before BuildTopology builds.
	topo, err := harness.BuildTopology(*topoName, *topoDiv, *seed)
	if err != nil {
		return fail(2, "%v", err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(1, "%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, "%v", err)
		}
		defer pprof.StopCPUProfile()
	}

	tr := trace.Generate(tcfg)

	cfg := harness.DefaultConfig(topo, tr)
	if *secRoute {
		cfg.App = new(harness.SecureRouting)
	}
	cfg.NetworkLoss = *loss
	if *svcQueue > 0 {
		cfg.Service = netmodel.ServiceModel{QueueLimit: *svcQueue, Rate: *svcRate}
	}
	cfg.LookupRate = *lookups
	if *workload == "zipf" {
		cfg.Zipf = harness.NewZipf(*seed, *zipfKeys, *zipfS)
	}
	cfg.SetupRamp = setupRamp
	cfg.Seed = *seed
	cfg.MaliciousFraction = *malFrac
	if *metricsDump != "" || *traceLook {
		cfg.Telemetry = telemetry.NewRegistry()
		cfg.TraceLookups = *traceLook
	}
	if *faultAt > 0 {
		script := new(harness.FaultScript)
		if *partFrac > 0 {
			script.Partition(*faultAt, *faultDur, *partFrac)
		}
		if *spike > 0 {
			script.Add(*faultAt, *faultDur, netmodel.Fault{Spike: *spike})
		}
		cfg.Faults = script
	}

	fmt.Fprintf(stdout, "# topology=%s (routers=%d) trace=%s (nodes=%d, %v) loss=%.1f%% lookups=%g/s\n",
		topo.Name(), topo.NumRouters(), tr.Name, tr.Nodes, tr.Duration, *loss*100, *lookups)
	if cfg.Zipf != nil {
		fmt.Fprintf(stdout, "# workload=zipf s=%g keys=%d\n", *zipfS, *zipfKeys)
	}
	if *malFrac > 0 {
		fmt.Fprintf(stdout, "# adversary: frac=%.2f secure-routing=%v\n", *malFrac, *secRoute)
	}

	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	res := harness.Run(cfg)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&memAfter)

	fmt.Fprintf(stdout, "\n%-10s %8s %8s %8s %10s %10s %10s\n",
		"window", "active", "rdp", "hops", "ctrl/n/s", "loss", "incorrect")
	for _, w := range res.Windows {
		fmt.Fprintf(stdout, "%-10s %8.0f %8.2f %8.2f %10.3f %10.2e %10.2e\n",
			w.Start.Round(time.Second), w.MeanActive, w.RDP, w.MeanHops,
			w.ControlPerNodeSec, w.LossRate(), w.IncorrectRate())
	}
	t := res.Totals
	fmt.Fprintf(stdout, "\nTOTALS  %s\n", t)
	fmt.Fprintf(stdout, "control breakdown (msg/s/node):")
	cats := make([]pastry.Category, 0, len(t.ByCategory))
	for cat := range t.ByCategory {
		cats = append(cats, cat)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	for _, cat := range cats {
		fmt.Fprintf(stdout, "  %s=%.4f", cat, t.ByCategory[cat])
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "wire: control-bytes/n/s=%.1f\n", t.ControlBytesPerNodeSec)
	fmt.Fprintf(stdout, "self-tuned Trt (median of live nodes): %v\n", res.TrtMedian.Round(time.Second))
	fmt.Fprintf(stdout, "joins=%d medianJoinLatency=%v timeouts=%d suppressedProbes=%d\n",
		t.Joins, t.MedianJoinLatency.Round(time.Millisecond),
		res.Counters.Retransmits, res.Counters.SuppressedProbes)
	fmt.Fprintf(stdout, "leaf-set candidates: probes=%d unusedReplies=%d\n",
		res.Counters.SentCandidateProbes, res.Counters.UnusedCandidateReplies)
	fmt.Fprintf(stdout, "drops by cause:")
	for c := netmodel.DropCause(0); c < netmodel.NumDropCauses; c++ {
		fmt.Fprintf(stdout, "  %s=%d", c, res.DropsByCause[c])
	}
	fmt.Fprintln(stdout)
	if cfg.Service.QueueLimit > 0 {
		fmt.Fprintf(stdout, "service sheds by lane:")
		for l := overload.Lane(0); l < overload.NumLanes; l++ {
			fmt.Fprintf(stdout, "  %s=%d", l, res.ShedByLane[l])
		}
		fmt.Fprintf(stdout, "  budget_dry=%d breaker_opens=%d breaker_reopens=%d breaker_closes=%d\n",
			res.Counters.RetryBudgetExhausted, res.Counters.BreakerOpens,
			res.Counters.BreakerReopens, res.Counters.BreakerCloses)
	}
	if *malFrac > 0 {
		a := res.Adversary
		fmt.Fprintf(stdout, "adversary: marked=%d dropped=%d misrouted=%d rootClaims=%d reportsForged=%d acksForged=%d poisoned=%d\n",
			int(*malFrac*float64(tr.Nodes)+0.5), a.LookupsDropped, a.LookupsMisrouted,
			a.RootClaims, a.ReportsForged, a.AcksForged, a.MessagesPoisoned)
	}
	if *secRoute {
		c := res.Secure
		fmt.Fprintf(stdout, "secure routing: reports=%d pass=%d fail=%d rounds=%d sends=%d distrusted=%d giveups=%d\n",
			c.Reports, c.TestPass, c.TestFail, c.RedundantRounds, c.RedundantSends, c.Distrusted, c.GiveUps)
	}
	if cfg.Faults != nil {
		fmt.Fprintf(stdout, "fault counters: duplicated=%d reordered=%d peakRetx=%.4f/node/s\n",
			res.FaultCounts.Duplicated, res.FaultCounts.Reordered, t.PeakRetxPerNodeSec)
		fmt.Fprintf(stdout, "%-18s %8s %10s %10s %8s\n", "phase", "issued", "delivered", "incorrect", "lost")
		for _, p := range []struct {
			name  string
			count stats.Outcomes
		}{
			{"before-fault", res.Phases.Before},
			{"during-fault", res.Phases.During},
			{"after-fault", res.Phases.After},
		} {
			fmt.Fprintf(stdout, "%-18s %8d %10d %10d %8d\n", p.name,
				p.count.Issued, p.count.Delivered, p.count.Incorrect, p.count.Lost)
		}
		for _, rec := range res.Recovery {
			fmt.Fprintf(stdout, "recovery: healed at %v, repaired=%v, time-to-repair=%v\n",
				rec.HealAt.Round(time.Second), rec.Repaired, rec.TimeToRepair().Round(time.Second))
		}
	}
	if *traceLook {
		ts := res.Tracer.Stats()
		fmt.Fprintf(stdout, "hop traces: delivered=%d dropped=%d outstanding=%d reconstructed=%d (%.2f%%)\n",
			ts.Delivered, ts.Dropped, ts.Outstanding, ts.Reconstructed,
			ts.ReconstructionRate()*100)
	}
	dropped := 0
	for _, c := range res.DropsByReason {
		dropped += c
	}
	fmt.Fprintf(stdout, "lookups: issued=%d delivered=%d incorrect=%d dropped=%d timeout_lost=%d\n",
		t.Issued, t.Delivered, t.Incorrect, dropped, res.TimeoutLost)
	events := float64(res.SimEvents)
	fmt.Fprintf(stdout, "simulated %v in %v (%d events, %.0f events/s, %.2f allocs/event, %.0f B/event)\n",
		tr.Duration, elapsed.Round(time.Millisecond), res.SimEvents, events/elapsed.Seconds(),
		float64(memAfter.Mallocs-memBefore.Mallocs)/events,
		float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/events)
	if t.IncorrectRate() > 0 {
		fmt.Fprintf(stderr, "note: incorrect deliveries observed (expected only with link loss)\n")
	}

	switch *metricsDump {
	case "":
	case "-":
		err = cfg.Telemetry.WritePrometheus(stdout)
	default:
		err = writeFile(*metricsDump, cfg.Telemetry.WritePrometheus)
	}
	if err == nil && *memprofile != "" {
		runtime.GC()
		err = writeFile(*memprofile, pprof.WriteHeapProfile)
	}
	if err != nil {
		return fail(1, "%v", err)
	}
	return 0
}

// writeFile creates path, hands it to write, and reports the first error
// of the three steps, Close included.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
