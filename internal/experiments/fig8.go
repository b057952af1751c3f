package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/harness"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/squirrel"
	"mspastry/internal/stats"
	"mspastry/internal/topology"
	"mspastry/internal/trace"
	"mspastry/internal/transport"
)

// fig8Result is the Squirrel traffic series of Figure 8, with the
// weekday/weekend pattern visible.
type fig8Result struct {
	// windows are the run's rows: TotalPerNodeSec is total traffic
	// (control, lookup and application messages) per second per node.
	windows []stats.WindowStat
	// winRequests counts web requests per window; originFetches and
	// requests summarise cache effectiveness.
	winRequests   []int
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
	for i, w := range r.windows {
		t.Rows = append(t.Rows, Row{Label: w.Start.Round(time.Minute).String(), Values: map[string]float64{
			"msgsPerNodeSec": w.TotalPerNodeSec, "active": w.MeanActive, "requests": float64(r.winRequests[i]),
		}})
		traffic = append(traffic, w.TotalPerNodeSec)
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
// through harness.Run and reports total traffic per node per window. The
// machines' availability is the run's churn trace; the first ones up join
// over a 15-minute setup ramp before measurement starts.
func squirrelReplay(seed int64, machines, days int) fig8Result {
	duration := time.Duration(days) * 24 * time.Hour
	// Machine availability: office machines stay up ~20h at a time and
	// are mostly on (the Squirrel deployment machines were desktops).
	churn := trace.Generate(trace.Config{
		Name: "squirrel", Duration: duration,
		Population: machines, OnlineFraction: 0.85,
		MeanSession: 20 * time.Hour, Diurnal: 0.3, Weekly: 0.3,
		Seed: seed,
	})
	topo := topology.CorpNet(topology.DefaultCorpNet(), rand.New(rand.NewSource(seed)))
	cfg := harness.DefaultConfig(topo, churn)
	cfg.Pastry.L = 16
	cfg.LookupRate = 0
	cfg.Window = fig8WindowLen
	cfg.SetupRamp = 15 * time.Minute
	cfg.Seed = seed
	app := &squirrelApp{proxies: make([]*squirrel.Proxy, machines), duration: duration}
	app.res.winRequests = make([]int, duration/fig8WindowLen)
	cfg.App = app
	app.res.windows = harness.Run(cfg).Windows
	return app.res
}

// squirrelApp mounts a Squirrel proxy on every machine the run starts and
// drives the web workload: per-tick Poisson arrivals at each active
// machine, thinned by the diurnal/weekly curve, for URLs drawn zipf from
// the catalog.
type squirrelApp struct {
	proxies  []*squirrel.Proxy // each slot's current proxy
	duration time.Duration
	res      fig8Result
}

// Mount implements harness.App.
func (a *squirrelApp) Mount(slot int, node *pastry.Node, _ *netmodel.Endpoint) harness.Issuer {
	a.proxies[slot] = squirrel.New(node, squirrel.OriginFunc(func(url string) ([]byte, error) {
		a.res.originFetches++
		return []byte("obj:" + url), nil
	}))
	return nil
}

// Start implements harness.App.
func (a *squirrelApp) Start(sim *eventsim.Simulator) {
	catalog := make([]string, fig8Catalog)
	for i := range catalog {
		catalog[i] = fmt.Sprintf("http://corp.example/doc-%04d", i)
	}
	zipf := rand.NewZipf(sim.Rand(), 1.1, 2.0, uint64(fig8Catalog-1))
	start := sim.Now()
	const step = 30 * time.Second
	var tick func()
	tick = func() {
		now := sim.Now() - start
		if now >= a.duration {
			return
		}
		mean := fig8PeakRate * workdayIntensity(now) * step.Seconds()
		for _, p := range a.proxies {
			if p == nil || !p.Node().Alive() || !p.Node().Active() {
				continue
			}
			n := poissonDraw(sim.Rand(), mean)
			a.res.winRequests[now/fig8WindowLen] += n
			a.res.requests += n
			for k := 0; k < n; k++ {
				p.Get(catalog[int(zipf.Uint64())], func([]byte, squirrel.Outcome) {})
			}
		}
		sim.After(step, tick)
	}
	tick()
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
