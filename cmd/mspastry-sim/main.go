// Command mspastry-sim runs one MSPastry simulation experiment and prints
// the windowed evaluation metrics (§5.2 of the paper): relative delay
// penalty, control traffic per node, lookup loss rate and incorrect
// delivery rate.
//
// Examples:
//
//	mspastry-sim -trace gnutella -trace-div 16 -max-dur 2h
//	mspastry-sim -trace poisson -session 30m -nodes 500 -duration 2h
//	mspastry-sim -trace overnet -topo mercator -loss 0.05
//	mspastry-sim -trace gnutella -no-acks -no-probing   # the ablation
//	mspastry-sim -trace poisson -malicious-frac 0.1 -secure-routing
//
// Fault injection (all faults share the -fault-at/-fault-dur window,
// measured from the end of the setup ramp):
//
//	mspastry-sim -fault-at 30m -fault-dur 2m -partition-frac 0.5
//	mspastry-sim -fault-at 30m -fault-dur 1m -spike 1s -dup 0.05
package main

import (
	"flag"
	"fmt"
	"log"
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

func main() {
	log.SetFlags(0)
	var (
		topoName  = flag.String("topo", "gatech", "topology: gatech, mercator, corpnet")
		topoDiv   = flag.Int("topo-div", 8, "topology scale divisor (1 = paper size)")
		traceSel  = flag.String("trace", "gnutella", "churn trace: gnutella, overnet, microsoft, poisson")
		traceDiv  = flag.Int("trace-div", 16, "trace population divisor (1 = paper size)")
		maxDur    = flag.Duration("max-dur", 2*time.Hour, "cap on trace duration (0 = full trace)")
		session   = flag.Duration("session", 30*time.Minute, "poisson trace: mean session time")
		nodes     = flag.Int("nodes", 500, "poisson trace: average active nodes")
		duration  = flag.Duration("duration", 2*time.Hour, "poisson trace: duration")
		loss      = flag.Float64("loss", 0, "uniform network message loss rate [0,1)")
		coalesce  = flag.Duration("coalesce", 0, "control-message coalescing window (0 = one message per datagram)")
		coalesceL = flag.Duration("coalesce-long", 0, "extended coalescing window for delay-tolerant messages (heartbeats, gossip); keep below the probe timeout")
		lookups   = flag.Float64("lookups", 0.01, "lookups per second per node")
		workload  = flag.String("workload", "uniform", "lookup key distribution: uniform, zipf")
		zipfS     = flag.Float64("zipf-s", 1.0, "zipf exponent for -workload zipf")
		zipfKeys  = flag.Int("zipf-keys", 1024, "popular key set size for -workload zipf")
		window    = flag.Duration("window", 10*time.Minute, "metric averaging window")
		ramp      = flag.Duration("ramp", 5*time.Minute, "setup ramp for the warm start")
		seed      = flag.Int64("seed", 1, "random seed")

		b        = flag.Int("b", 4, "identifier digit bits")
		l        = flag.Int("l", 32, "leaf set size")
		tls      = flag.Duration("tls", 0, "override the leaf-set heartbeat period Tls (0 = default)")
		to       = flag.Duration("to", 0, "override the probe timeout To (0 = default)")
		noAcks   = flag.Bool("no-acks", false, "disable per-hop acks")
		noProbes = flag.Bool("no-probing", false, "disable routing-table liveness probing")
		noTune   = flag.Bool("no-selftune", false, "disable self-tuning (use -trt)")
		fixedTrt = flag.Duration("trt", time.Minute, "fixed probing period with -no-selftune")
		targetLr = flag.Float64("target-lr", 0.05, "self-tuning raw loss-rate target")
		noPNS    = flag.Bool("no-pns", false, "disable proximity neighbour selection")

		faultAt    = flag.Duration("fault-at", 0, "fault window start, measured from the end of the ramp (0 = no faults)")
		faultDur   = flag.Duration("fault-dur", time.Minute, "fault window duration")
		partFrac   = flag.Float64("partition-frac", 0, "partition this fraction of nodes away from the rest (0 = none)")
		jitter     = flag.Duration("jitter", 0, "uniform extra delay in [0,jitter] during the fault window")
		spike      = flag.Duration("spike", 0, "fixed extra delay during the fault window")
		dup        = flag.Float64("dup", 0, "message duplication probability during the fault window")
		reorder    = flag.Float64("reorder", 0, "message holdback (reordering) probability during the fault window")
		reorderMax = flag.Duration("reorder-max", 100*time.Millisecond, "maximum holdback for reordered messages")

		svcQueue = flag.Int("svc-queue", 0, "per-node service-capacity model: bounded receive queue length (0 = unbounded)")
		svcRate  = flag.Float64("svc-rate", 0, "per-node service-capacity model: messages processed per second (0 = infinite)")

		malFrac   = flag.Float64("malicious-frac", 0, "fraction of nodes that behave maliciously [0,1)")
		malBhv    = flag.String("malicious-behaviors", "all", "comma list of adversary behaviors: drop, misroute, poison, forgeack (or all, none)")
		secRoute  = flag.Bool("secure-routing", false, "enable the routing failure test and redundant diverse-path lookups")
		secFanout = flag.Int("secure-fanout", 0, "override diverse first hops per redundant round (0 = default)")
		secRounds = flag.Int("secure-rounds", 0, "override redundant rounds per lookup (0 = default)")

		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		metricsDump = flag.String("metrics-dump", "", "write the telemetry registry in Prometheus text format at exit (\"-\" for stdout)")
		traceLook   = flag.Bool("trace-lookups", false, "record per-lookup hop traces and print route statistics")
	)
	flag.Parse()

	// Reject nonsense before it turns into a wedged run: a negative
	// window silently disables coalescing flushes, a zero To makes every
	// probe time out instantly, and a lone -svc-queue or -svc-rate gives
	// a capacity model with either no bound or no drain.
	switch {
	case *topoDiv < 1 || *traceDiv < 1:
		log.Fatalf("-topo-div and -trace-div must be >= 1")
	case *maxDur < 0:
		log.Fatalf("-max-dur must be >= 0, got %v", *maxDur)
	case *session <= 0 || *duration <= 0 || *nodes < 1:
		log.Fatalf("-session and -duration must be positive and -nodes >= 1")
	case *loss < 0 || *loss >= 1:
		log.Fatalf("-loss %g outside [0,1)", *loss)
	case *coalesce < 0:
		log.Fatalf("-coalesce must be >= 0, got %v", *coalesce)
	case *coalesceL < 0:
		log.Fatalf("-coalesce-long must be >= 0, got %v", *coalesceL)
	case *coalesceL > 0 && *coalesceL < *coalesce:
		log.Fatalf("-coalesce-long (%v) must be >= -coalesce (%v)", *coalesceL, *coalesce)
	case *lookups < 0:
		log.Fatalf("-lookups must be >= 0, got %g", *lookups)
	case *workload != harness.WorkloadUniform && *workload != harness.WorkloadZipf:
		log.Fatalf("-workload must be uniform or zipf, got %q", *workload)
	case *zipfS <= 0:
		log.Fatalf("-zipf-s must be > 0, got %g", *zipfS)
	case *zipfKeys < 1:
		log.Fatalf("-zipf-keys must be >= 1, got %d", *zipfKeys)
	case *window <= 0:
		log.Fatalf("-window must be positive, got %v", *window)
	case *ramp < 0:
		log.Fatalf("-ramp must be >= 0, got %v", *ramp)
	case *tls < 0 || *to < 0:
		log.Fatalf("-tls and -to overrides must be positive (0 = keep default)")
	case *noTune && *fixedTrt <= 0:
		log.Fatalf("-trt must be positive with -no-selftune, got %v", *fixedTrt)
	case *targetLr <= 0 || *targetLr >= 1:
		log.Fatalf("-target-lr %g outside (0,1)", *targetLr)
	case (*svcQueue > 0) != (*svcRate > 0):
		log.Fatalf("-svc-queue and -svc-rate must be set together (got queue=%d rate=%g)", *svcQueue, *svcRate)
	case *svcQueue < 0 || *svcRate < 0:
		log.Fatalf("-svc-queue and -svc-rate must be >= 0")
	case *malFrac < 0 || *malFrac >= 1:
		log.Fatalf("-malicious-frac %g outside [0,1)", *malFrac)
	case *secFanout < 0 || *secRounds < 0:
		log.Fatalf("-secure-fanout and -secure-rounds must be >= 0 (0 = default)")
	}
	behaviors, err := netmodel.ParseBehaviors(*malBhv)
	if err != nil {
		log.Fatalf("-malicious-behaviors: %v", err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	topo, err := harness.BuildTopology(*topoName, *topoDiv, *seed)
	if err != nil {
		log.Fatal(err)
	}

	var tr *trace.Trace
	switch *traceSel {
	case "gnutella":
		tr = trace.Generate(trace.Gnutella().Scaled(*traceDiv, *maxDur))
	case "overnet":
		tr = trace.Generate(trace.OverNet().Scaled(*traceDiv, *maxDur))
	case "microsoft":
		tr = trace.Generate(trace.Microsoft().Scaled(*traceDiv, *maxDur))
	case "poisson":
		tr = trace.Generate(trace.Poisson(*session, *nodes, *duration))
	default:
		log.Fatalf("unknown trace %q", *traceSel)
	}

	pcfg := pastry.DefaultConfig()
	pcfg.B = *b
	pcfg.L = *l
	pcfg.PerHopAcks = !*noAcks
	pcfg.ActiveProbing = !*noProbes
	pcfg.SelfTune = !*noTune
	pcfg.FixedTrt = *fixedTrt
	pcfg.TargetRawLoss = *targetLr
	pcfg.PNS = !*noPNS
	pcfg.SecureRouting = *secRoute
	if *secFanout > 0 {
		pcfg.SecureFanout = *secFanout
	}
	if *secRounds > 0 {
		pcfg.SecureMaxRounds = *secRounds
	}
	if *tls > 0 {
		pcfg.Tls = *tls
	}
	if *to > 0 {
		pcfg.To = *to
	}

	cfg := harness.DefaultConfig(topo, tr)
	cfg.Pastry = pcfg
	cfg.NetworkLoss = *loss
	if *svcQueue > 0 {
		cfg.Service = netmodel.ServiceModel{QueueLimit: *svcQueue, Rate: *svcRate}
	}
	cfg.CoalesceWindow = *coalesce
	cfg.CoalesceLongWindow = *coalesceL
	cfg.LookupRate = *lookups
	cfg.Workload = *workload
	cfg.ZipfS = *zipfS
	cfg.ZipfKeys = *zipfKeys
	cfg.Window = *window
	cfg.SetupRamp = *ramp
	cfg.Seed = *seed
	cfg.MaliciousFraction = *malFrac
	cfg.MaliciousBehaviors = behaviors
	if *metricsDump != "" || *traceLook {
		cfg.Telemetry = telemetry.NewRegistry()
		cfg.TraceLookups = *traceLook
	}

	if *faultAt > 0 {
		switch {
		case *partFrac < 0 || *partFrac >= 1:
			log.Fatalf("-partition-frac %g outside [0,1)", *partFrac)
		case *dup < 0 || *dup >= 1:
			log.Fatalf("-dup %g outside [0,1)", *dup)
		case *reorder < 0 || *reorder >= 1:
			log.Fatalf("-reorder %g outside [0,1)", *reorder)
		case *jitter < 0 || *spike < 0 || *reorderMax < 0:
			log.Fatalf("-jitter, -spike and -reorder-max must be non-negative")
		case *faultDur <= 0:
			log.Fatalf("-fault-dur must be positive")
		}
		script := new(harness.FaultScript)
		if *partFrac > 0 {
			script.Partition(*faultAt, *faultDur, *partFrac)
		}
		if *jitter > 0 {
			script.Jitter(*faultAt, *faultDur, *jitter)
		}
		if *spike > 0 {
			script.DelaySpike(*faultAt, *faultDur, *spike)
		}
		if *dup > 0 {
			script.Duplicate(*faultAt, *faultDur, *dup)
		}
		if *reorder > 0 {
			script.Reorder(*faultAt, *faultDur, *reorder, *reorderMax)
		}
		cfg.Faults = script
	}

	fmt.Printf("# topology=%s (routers=%d) trace=%s (nodes=%d, %v) loss=%.1f%% lookups=%g/s\n",
		topo.Name(), topo.NumRouters(), tr.Name, tr.Nodes, tr.Duration, *loss*100, *lookups)
	if *workload == harness.WorkloadZipf {
		fmt.Printf("# workload=zipf s=%g keys=%d\n", *zipfS, *zipfKeys)
	}
	if *malFrac > 0 {
		fmt.Printf("# adversary: frac=%.2f behaviors=%s secure-routing=%v\n",
			*malFrac, behaviors, *secRoute)
	}

	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	res := harness.Run(cfg)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&memAfter)

	fmt.Printf("\n%-10s %8s %8s %8s %10s %10s %10s\n",
		"window", "active", "rdp", "hops", "ctrl/n/s", "loss", "incorrect")
	for _, w := range res.Windows {
		fmt.Printf("%-10s %8.0f %8.2f %8.2f %10.3f %10.2e %10.2e\n",
			w.Start.Round(time.Second), w.Active, w.RDP, w.MeanHops,
			w.ControlPerNodeSec, w.LossRate, w.IncorrectRate)
	}
	t := res.Totals
	fmt.Printf("\nTOTALS  %s\n", t)
	fmt.Printf("control breakdown (msg/s/node):")
	cats := make([]pastry.Category, 0, len(t.ByCategory))
	for cat := range t.ByCategory {
		cats = append(cats, cat)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	for _, cat := range cats {
		fmt.Printf("  %s=%.4f", cat, t.ByCategory[cat])
	}
	fmt.Println()
	fmt.Printf("wire: datagrams/n/s=%.4f control-datagrams/n/s=%.4f control-bytes/n/s=%.1f coalesced-saved=%dB\n",
		t.DatagramsPerNodeSec, t.ControlDatagramsPerNodeSec,
		t.ControlBytesPerNodeSec, t.CoalescedSavedBytes)
	fmt.Printf("self-tuned Trt (median of live nodes): %v\n", res.TrtMedian.Round(time.Second))
	fmt.Printf("joins=%d medianJoinLatency=%v retransmits=%d suppressedProbes=%d\n",
		t.Joins, t.MedianJoinLatency.Round(time.Millisecond),
		res.Counters.Retransmits, res.Counters.SuppressedProbes)
	fmt.Printf("drops by cause:")
	for c := netmodel.DropCause(0); c < netmodel.NumDropCauses; c++ {
		fmt.Printf("  %s=%d", c, res.DropsByCause[c])
	}
	fmt.Println()
	if cfg.Service.QueueLimit > 0 {
		fmt.Printf("service sheds by lane:")
		for l := overload.Lane(0); l < overload.NumLanes; l++ {
			fmt.Printf("  %s=%d", l, res.ShedByLane[l])
		}
		fmt.Printf("  budget_dry=%d breaker_opens=%d breaker_reopens=%d breaker_closes=%d\n",
			res.Counters.RetryBudgetExhausted, res.Counters.BreakerOpens,
			res.Counters.BreakerReopens, res.Counters.BreakerCloses)
	}
	if *malFrac > 0 {
		a := res.Adversary
		fmt.Printf("adversary: marked=%d dropped=%d misrouted=%d rootClaims=%d reportsForged=%d acksForged=%d poisoned=%d\n",
			int(*malFrac*float64(tr.Nodes)+0.5), a.LookupsDropped, a.LookupsMisrouted,
			a.RootClaims, a.ReportsForged, a.AcksForged, a.MessagesPoisoned)
	}
	if *secRoute {
		c := res.Counters
		fmt.Printf("secure routing: reports=%d pass=%d fail=%d rounds=%d sends=%d distrusted=%d giveups=%d\n",
			c.SecureReports, c.SecureTestPass, c.SecureTestFail,
			c.SecureRedundantRounds, c.SecureRedundantSends, c.SecureDistrusted, c.SecureGiveUps)
	}
	if cfg.Faults != nil {
		fmt.Printf("fault counters: duplicated=%d reordered=%d peakRetx=%.4f/node/s\n",
			res.FaultCounts.Duplicated, res.FaultCounts.Reordered, t.PeakRetxPerNodeSec)
		fmt.Printf("%-18s %8s %10s %10s %8s\n", "phase", "issued", "delivered", "incorrect", "lost")
		for _, p := range []struct {
			name  string
			count stats.PhaseCount
		}{
			{"before-fault", res.Phases.Before},
			{"during-fault", res.Phases.During},
			{"after-fault", res.Phases.After},
		} {
			fmt.Printf("%-18s %8d %10d %10d %8d\n", p.name,
				p.count.Issued, p.count.Delivered, p.count.Incorrect, p.count.Lost)
		}
		for _, rec := range res.Recovery {
			fmt.Printf("recovery: healed at %v, repaired=%v, time-to-repair=%v\n",
				rec.HealAt.Round(time.Second), rec.Repaired, rec.TimeToRepair().Round(time.Second))
		}
	}
	if *traceLook {
		ts := res.TraceStats
		fmt.Printf("hop traces: delivered=%d dropped=%d outstanding=%d reconstructed=%d (%.2f%%)\n",
			ts.Delivered, ts.Dropped, ts.Outstanding, ts.Reconstructed,
			ts.ReconstructionRate()*100)
	}
	events := float64(res.SimEvents)
	fmt.Printf("simulated %v in %v (%d events, %.0f events/s, %.2f allocs/event, %.0f B/event)\n",
		tr.Duration, elapsed.Round(time.Millisecond), res.SimEvents, events/elapsed.Seconds(),
		float64(memAfter.Mallocs-memBefore.Mallocs)/events,
		float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/events)
	if t.IncorrectRate > 0 {
		fmt.Fprintf(os.Stderr, "note: incorrect deliveries observed (expected only with link loss)\n")
	}

	if *metricsDump != "" {
		out := os.Stdout
		if *metricsDump != "-" {
			f, err := os.Create(*metricsDump)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := cfg.Telemetry.WritePrometheus(out); err != nil {
			log.Fatal(err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
	}
}
