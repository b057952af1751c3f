package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/squirrel"
	"mspastry/internal/topology"
	"mspastry/internal/trace"
	"mspastry/internal/transport"
)

// fig8Window is one point of the Figure 8 series: total traffic (control,
// lookup and application messages) per second per node.
type fig8Window struct {
	start           time.Duration
	totalPerNodeSec float64
	active          float64
	requests        int
}

// fig8Result is the Squirrel traffic series of Figure 8, with the
// weekday/weekend pattern visible.
type fig8Result struct {
	windows []fig8Window
	// originFetches and requests summarise cache effectiveness.
	originFetches int
	requests      int
}

// The paper's deployment: 52 machines for 6 days (4 weekdays and a
// weekend), reported in 2-hour windows.
const (
	fig8Machines  = 52
	fig8Days      = 6
	fig8WindowLen = 2 * time.Hour
	// fig8PeakRate is web requests per second per active machine at the
	// workday peak; fig8Catalog the number of distinct URLs browsed.
	fig8PeakRate = 0.02
	fig8Catalog  = 400
)

// fig8 replays the deployment's six days, or as many whole days as
// MaxDuration allows — it caps this trace like every other, and the
// diurnal pattern needs whole days to show.
func fig8(s Scale) (Report, error) {
	days := fig8Days
	if s.MaxDuration > 0 && s.MaxDuration < fig8Days*24*time.Hour {
		days = int((s.MaxDuration + 24*time.Hour - 1) / (24 * time.Hour))
	}
	r := squirrelReplay(s.Seed, fig8Machines, days)
	t := Table{
		Title: fmt.Sprintf("Figure 8: Squirrel total traffic per node (%d machines, %d days)", fig8Machines, days),
		Cols:  []string{"msgsPerNodeSec", "active", "requests"},
	}
	var traffic []float64
	for _, w := range r.windows {
		t.Rows = append(t.Rows, Row{Label: w.start.Round(time.Minute).String(), Values: map[string]float64{
			"msgsPerNodeSec": w.totalPerNodeSec, "active": w.active, "requests": float64(w.requests),
		}})
		traffic = append(traffic, w.totalPerNodeSec)
	}
	trough, peak := extremes(traffic)
	return Report{Tables: []Table{t}, Headlines: []Headline{
		{"traffic-peak", peak},
		{"traffic-trough", trough},
		{"origin-fetch-frac", ratio(float64(r.originFetches), float64(r.requests))},
	}}, nil
}

// squirrelReplay replays a synthetic Squirrel workload — web requests with
// a strong daily pattern and quieter weekends, machines leaving at night —
// through the simulator and reports total traffic per node per window.
// The overlay churns, so it starts and stops nodes itself rather than
// through NewCluster.
func squirrelReplay(seed int64, machines, days int) fig8Result {
	sim := eventsim.New(seed)
	topo := topology.CorpNet(topology.DefaultCorpNet(), rand.New(rand.NewSource(seed)))
	nw := netmodel.New(sim, topo, 0)

	duration := time.Duration(days) * 24 * time.Hour
	// Machine availability: office machines stay up ~20h at a time and
	// are mostly on (the Squirrel deployment machines were desktops).
	churn := trace.Generate(trace.Config{
		Name: "squirrel", Duration: duration,
		Population: machines, OnlineFraction: 0.85,
		MeanSession: 20 * time.Hour, Diurnal: 0.3, Weekly: 0.3,
		Seed: seed,
	})

	pcfg := pastry.DefaultConfig()
	pcfg.L = 16

	nwin := int(duration/fig8WindowLen) + 1
	msgs := make([]int, nwin)
	reqs := make([]int, nwin)
	nodeSec := make([]float64, nwin)
	win := func() int {
		i := int(sim.Now() / fig8WindowLen)
		if i >= nwin {
			i = nwin - 1
		}
		return i
	}
	nw.OnSend(func(from *netmodel.Endpoint, to pastry.NodeRef, m pastry.Message, singleBytes int) {
		msgs[win()]++
	})

	res := fig8Result{}
	origin := squirrel.OriginFunc(func(url string) ([]byte, error) {
		res.originFetches++
		return []byte("obj:" + url), nil
	})

	eps := make([]*netmodel.Endpoint, machines)
	proxies := make([]*squirrel.Proxy, machines)
	first := topo.Attach(machines, sim.Rand())
	for i := range eps {
		eps[i] = nw.NewEndpoint(first + i)
	}
	alive := make([]int, 0, machines)
	// seedFor finds a running, active machine other than slot to join
	// through.
	seedFor := func(slot int) (pastry.NodeRef, bool) {
		for _, s := range alive {
			if s != slot && proxies[s].Node().Active() {
				return proxies[s].Node().Ref(), true
			}
		}
		return pastry.NodeRef{}, false
	}
	start := func(slot int) {
		ep := eps[slot]
		ref := pastry.NodeRef{ID: id.Random(sim.Rand()), Addr: ep.Addr()}
		node, err := pastry.NewNode(ref, pcfg, ep, nil)
		if err != nil {
			panic(err)
		}
		ep.Bind(node)
		proxies[slot] = squirrel.New(node, origin)
		node.SetSeedSource(func() (pastry.NodeRef, bool) { return seedFor(slot) })
		// The first machine up, or one that finds everybody else down,
		// starts an overlay of its own.
		if seed, ok := seedFor(slot); ok {
			node.Join(seed)
		} else {
			node.Bootstrap()
		}
		alive = append(alive, slot)
	}
	stop := func(slot int) {
		eps[slot].Fail()
		for i, s := range alive {
			if s == slot {
				alive = append(alive[:i], alive[i+1:]...)
				break
			}
		}
	}

	// Warm start.
	for _, slot := range churn.Initial {
		slot := slot
		sim.At(time.Duration(sim.Rand().Int63n(int64(10*time.Minute))), func() { start(slot) })
	}
	const ramp = 15 * time.Minute
	for _, ev := range churn.Events {
		ev := ev
		at := ramp + ev.At
		switch ev.Kind {
		case trace.Join:
			sim.At(at, func() {
				if !eps[ev.Node].Up() {
					start(ev.Node)
				}
			})
		case trace.Leave:
			sim.At(at, func() {
				if eps[ev.Node].Up() {
					stop(ev.Node)
				}
			})
		}
	}

	// Web workload: per-tick Poisson thinned by the diurnal/weekly curve.
	catalog := make([]string, fig8Catalog)
	for i := range catalog {
		catalog[i] = fmt.Sprintf("http://corp.example/doc-%04d", i)
	}
	zipf := rand.NewZipf(sim.Rand(), 1.1, 2.0, uint64(fig8Catalog-1))
	var tick func()
	const step = 30 * time.Second
	tick = func() {
		now := sim.Now()
		if now >= duration {
			return
		}
		intensity := workdayIntensity(now)
		mean := fig8PeakRate * intensity * step.Seconds()
		for _, slot := range alive {
			p := proxies[slot]
			if p == nil || !p.Node().Alive() || !p.Node().Active() {
				continue
			}
			n := poissonDraw(sim.Rand(), mean)
			for k := 0; k < n; k++ {
				w := win()
				reqs[w]++
				res.requests++
				p.Get(catalog[int(zipf.Uint64())], func([]byte, squirrel.Outcome) {})
			}
		}
		// Integrate node-seconds.
		nodeSec[win()] += float64(len(alive)) * step.Seconds()
		sim.After(step, tick)
	}
	sim.At(ramp, tick)

	sim.RunUntil(duration)

	for i := 0; i < nwin; i++ {
		w := fig8Window{start: time.Duration(i) * fig8WindowLen, requests: reqs[i]}
		if nodeSec[i] > 0 {
			w.totalPerNodeSec = float64(msgs[i]) / nodeSec[i]
			w.active = nodeSec[i] / fig8WindowLen.Seconds()
		}
		res.windows = append(res.windows, w)
	}
	return res
}

// workdayIntensity models office web browsing: strong daytime peak on
// weekdays (days 0-3 and 6 of the paper's trace week), low weekends.
func workdayIntensity(t time.Duration) float64 {
	day := int(t.Hours()) / 24
	hour := t.Hours() - float64(day)*24
	daytime := 0.05
	if hour >= 8 && hour <= 18 {
		daytime = 1.0
	} else if hour > 18 && hour < 22 {
		daytime = 0.3
	}
	// Days 4 and 5 are the weekend.
	if day%7 == 4 || day%7 == 5 {
		daytime *= 0.15
	}
	return daytime
}

// poissonDraw samples a Poisson variate with Knuth's method (the means
// here are well below 10, where it is exact and fast).
func poissonDraw(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	limit := math.Exp(-mean)
	l := 1.0
	for i := 0; i < 1000; i++ {
		l *= rng.Float64()
		if l < limit {
			return i
		}
	}
	return 1000
}

// The validation runs the same compressed Squirrel workload twice — once
// in the discrete-event simulator and once over real UDP sockets on the
// loopback interface — and compares total messages sent, the paper's
// simulator-validation claim.
func fig8Validate(s Scale) (Report, error) {
	const nodes, dur = 8, 15 * time.Second
	simMsgs, liveMsgs, err := squirrelValidation(nodes, dur, s.Seed)
	if err != nil {
		return Report{}, err
	}
	t := Table{Cols: []string{"nodes", "durationSec", "simMsgs", "liveMsgs"}, Rows: []Row{{
		Label: "squirrel", Values: map[string]float64{
			"nodes": nodes, "durationSec": dur.Seconds(),
			"simMsgs": float64(simMsgs), "liveMsgs": float64(liveMsgs),
		}}}}
	// 1.0 is perfect agreement.
	return Report{Tables: []Table{t}, Headlines: []Headline{
		{"live/sim", ratio(float64(liveMsgs), float64(simMsgs))},
	}}, nil
}

// squirrelValidation runs the workload on n nodes for the given duration
// (virtual, then wall-clock) and returns the messages each world sent.
func squirrelValidation(n int, duration time.Duration, seed int64) (simMsgs, liveMsgs uint64, err error) {
	cfg := pastry.DefaultConfig()
	cfg.L = 8
	cfg.Tls = 2 * time.Second
	cfg.To = time.Second
	cfg.TickInterval = time.Second
	cfg.DistProbeSpacing = 200 * time.Millisecond
	cfg.RTMaintenance = 20 * time.Second

	requestEvery := 500 * time.Millisecond
	origin := squirrel.OriginFunc(func(url string) ([]byte, error) { return []byte(url), nil })

	// --- simulator run ---
	{
		sim := eventsim.New(seed)
		topo := topology.CorpNet(topology.CorpNetConfig{Hubs: 4, EdgeRouters: 12}, rand.New(rand.NewSource(seed)))
		nw := netmodel.New(sim, topo, 0)
		nw.OnSend(func(*netmodel.Endpoint, pastry.NodeRef, pastry.Message, int) { simMsgs++ })
		proxies := make([]*squirrel.Proxy, n)
		nw.NewCluster(n, cfg, time.Second, func(i int, node *pastry.Node, _ *netmodel.Endpoint) {
			proxies[i] = squirrel.New(node, origin)
		})
		reqRng := rand.New(rand.NewSource(seed + 7))
		end := sim.Now() + duration
		for sim.Now() < end {
			p := proxies[reqRng.Intn(n)]
			if p.Node().Alive() && p.Node().Active() {
				p.Get(fmt.Sprintf("http://val.example/%d", reqRng.Intn(50)), func([]byte, squirrel.Outcome) {})
			}
			sim.RunUntil(sim.Now() + requestEvery)
		}
	}

	// --- live UDP run with the same shape ---
	transports := make([]*transport.UDP, 0, n)
	defer func() {
		for _, tr := range transports {
			_ = tr.Close()
		}
	}()
	proxies := make([]*squirrel.Proxy, n)
	var seedRef pastry.NodeRef
	for i := 0; i < n; i++ {
		tr, err := transport.Listen("127.0.0.1:0", seed+int64(i))
		if err != nil {
			return 0, 0, err
		}
		transports = append(transports, tr)
		if _, err := tr.CreateNode(id.ID{}, cfg, nil); err != nil {
			return 0, 0, err
		}
		i := i
		tr.DoSync(func(nd *pastry.Node) {
			proxies[i] = squirrel.New(nd, origin)
		})
		if i == 0 {
			tr.DoSync(func(nd *pastry.Node) { nd.Bootstrap(); seedRef = nd.Ref() })
		} else {
			tr.DoSync(func(nd *pastry.Node) { nd.Join(seedRef) })
		}
		time.Sleep(time.Second)
	}
	reqRng := rand.New(rand.NewSource(seed + 7))
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		i := reqRng.Intn(n)
		url := fmt.Sprintf("http://val.example/%d", reqRng.Intn(50))
		transports[i].Do(func(nd *pastry.Node) {
			if nd.Alive() && nd.Active() {
				proxies[i].Get(url, func([]byte, squirrel.Outcome) {})
			}
		})
		time.Sleep(requestEvery)
	}
	for _, tr := range transports {
		sent, _ := tr.Counters()
		liveMsgs += sent
	}
	return simMsgs, liveMsgs, nil
}
