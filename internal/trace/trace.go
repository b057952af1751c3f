// Package trace models node arrival/departure (churn) traces.
//
// The paper drives its fault injection with three traces measured on
// deployed systems — Gnutella (Saroiu et al.), OverNet (Bhagwan et al.) and
// the Microsoft corporate network (Bolosky et al.) — plus artificial traces
// with Poisson arrivals and exponential session times. The measured traces
// are not publicly redistributable, so this package generates synthetic
// traces that match their published statistics: population, trace length,
// mean/median session time, active-node range, and the daily and weekly
// arrival patterns visible in the paper's Figure 3. See DESIGN.md for the
// substitution argument.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Kind distinguishes arrivals from departures.
type Kind int

const (
	// Join is a node arrival: the node starts its join protocol.
	Join Kind = iota + 1
	// Leave is a node departure. The paper injects departures as crash
	// failures: the node simply stops responding.
	Leave
)

func (k Kind) String() string {
	switch k {
	case Join:
		return "join"
	case Leave:
		return "leave"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one arrival or departure of a node slot.
type Event struct {
	At   time.Duration
	Node int
	Kind Kind
}

// Trace is a churn schedule: a set of nodes active at time zero and a
// time-ordered list of subsequent joins and leaves.
type Trace struct {
	Name     string
	Duration time.Duration
	// Nodes is the number of distinct node slots referenced by the trace.
	Nodes int
	// Initial lists the nodes active at time zero.
	Initial []int
	// Events are sorted by At (ties broken by insertion order) and occur
	// strictly after time zero.
	Events []Event
}

// Config parameterises the synthetic churn generator.
type Config struct {
	Name     string
	Duration time.Duration

	// Closed-world model (Gnutella/OverNet/Microsoft): Population node
	// slots cycle between online and offline.
	Population     int
	OnlineFraction float64

	// Open-world model (Poisson traces): fresh nodes arrive in a Poisson
	// process sized to keep TargetActive nodes alive on average. Set
	// Population to zero to select this model.
	TargetActive int

	// MeanSession is the mean session time. If MedianSession is non-zero
	// and below the mean, sessions are lognormal with that mean and median
	// (heavy-tailed, as measured in real systems); otherwise exponential.
	MeanSession   time.Duration
	MedianSession time.Duration

	// Diurnal and Weekly modulate arrival intensity: Diurnal is the
	// relative amplitude of a 24 h sine; Weekly scales weekend intensity
	// down. Zero disables the pattern.
	Diurnal float64
	Weekly  float64

	Seed int64
}

// Gnutella returns the configuration matching the paper's Gnutella trace:
// 17,000 unique nodes over 60 hours, average session 2.3 h, median 1 h,
// 1,300–2,700 nodes active at a time.
func Gnutella() Config {
	return Config{
		Name:           "gnutella",
		Duration:       60 * time.Hour,
		Population:     17000,
		OnlineFraction: 0.117, // ~2000 of 17000 active
		MeanSession:    138 * time.Minute,
		MedianSession:  60 * time.Minute,
		Diurnal:        0.45,
		Seed:           1,
	}
}

// OverNet returns the configuration matching the paper's OverNet trace:
// 1,468 unique nodes over 7 days, average session 134 min, median 79 min,
// 260–650 active.
func OverNet() Config {
	return Config{
		Name:           "overnet",
		Duration:       7 * 24 * time.Hour,
		Population:     1468,
		OnlineFraction: 0.31, // ~455 of 1468 active
		MeanSession:    134 * time.Minute,
		MedianSession:  79 * time.Minute,
		Diurnal:        0.4,
		Weekly:         0.25,
		Seed:           2,
	}
}

// Microsoft returns the configuration matching the paper's Microsoft trace:
// 20,000 machines (sampled from 65,000) over 37 days, average session
// 37.7 h, 14,700–15,600 active — an order of magnitude lower failure rate
// than the open-Internet traces.
func Microsoft() Config {
	return Config{
		Name:           "microsoft",
		Duration:       37 * 24 * time.Hour,
		Population:     20000,
		OnlineFraction: 0.7575,
		MeanSession:    37*time.Hour + 42*time.Minute,
		Diurnal:        0.25,
		Weekly:         0.15,
		Seed:           3,
	}
}

// Poisson returns the paper's artificial trace family: Poisson arrivals and
// exponential session times sized to keep avgNodes nodes active on average.
// The paper uses session times of 5, 15, 30, 60, 120 and 600 minutes with
// 10,000 average nodes.
func Poisson(session time.Duration, avgNodes int, duration time.Duration) Config {
	return Config{
		Name:         fmt.Sprintf("poisson-%dm", int(session.Minutes())),
		Duration:     duration,
		TargetActive: avgNodes,
		MeanSession:  session,
		Seed:         4,
	}
}

// Family returns the configuration of a trace family by the name the
// commands take: gnutella, overnet, microsoft or poisson. The measured
// families ignore the Poisson arguments.
func Family(name string, session time.Duration, avgNodes int, duration time.Duration) (Config, error) {
	switch name {
	case "gnutella":
		return Gnutella(), nil
	case "overnet":
		return OverNet(), nil
	case "microsoft":
		return Microsoft(), nil
	case "poisson":
		return Poisson(session, avgNodes, duration), nil
	}
	return Config{}, fmt.Errorf("unknown trace family %q: want gnutella, overnet, microsoft or poisson", name)
}

// Scaled shrinks the trace: population (or target active count) divided by
// div and duration capped at maxDur, preserving session-time distribution
// and therefore per-node churn rates. Used by tests and benchmarks.
func (c Config) Scaled(div int, maxDur time.Duration) Config {
	if div > 1 {
		c.Population /= div
		c.TargetActive /= div
	}
	if maxDur > 0 && c.Duration > maxDur {
		c.Duration = maxDur
	}
	return c
}

// Generate builds the trace for a configuration. Generation is
// deterministic for a given configuration (including Seed).
func Generate(cfg Config) *Trace {
	if cfg.MeanSession <= 0 {
		panic("trace: MeanSession must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Population > 0 {
		return generateClosed(cfg, rng)
	}
	if cfg.TargetActive > 0 {
		return generateOpen(cfg, rng)
	}
	panic("trace: need Population or TargetActive")
}

func generateClosed(cfg Config, rng *rand.Rand) *Trace {
	tr := &Trace{Name: cfg.Name, Duration: cfg.Duration, Nodes: cfg.Population}
	offMean := cfg.MeanSession.Seconds() * (1/cfg.OnlineFraction - 1)
	for node := 0; node < cfg.Population; node++ {
		t := 0.0
		if rng.Float64() < cfg.OnlineFraction {
			tr.Initial = append(tr.Initial, node)
			t = residualSession(cfg, rng)
			tr.appendEvent(t, node, Leave, cfg)
		}
		// The node is offline at time t; alternate off-period/session.
		for t < cfg.Duration.Seconds() {
			t = nextArrival(cfg, rng, t, 1/offMean)
			tr.appendEvent(t, node, Join, cfg)
			if t >= cfg.Duration.Seconds() {
				break
			}
			t += sampleSession(cfg, rng)
			tr.appendEvent(t, node, Leave, cfg)
		}
	}
	tr.finish()
	return tr
}

// nextArrival advances from time t to the next event of a non-homogeneous
// Poisson process with base rate baseHazard modulated by intensity(cfg, .),
// using Lewis-Shedler thinning. The base hazard is renormalised by the
// time-averaged intensity so that the long-run event rate stays baseHazard
// regardless of the daily/weekly pattern.
func nextArrival(cfg Config, rng *rand.Rand, t, baseHazard float64) float64 {
	avg := meanIntensity(cfg)
	maxI := 1 + cfg.Diurnal
	ceiling := baseHazard * maxI / avg
	for {
		t += rng.ExpFloat64() / ceiling
		if rng.Float64()*maxI <= intensity(cfg, t) {
			return t
		}
		if t > cfg.Duration.Seconds() {
			return t
		}
	}
}

// meanIntensity is the long-run time average of intensity(cfg, .): the
// diurnal sine averages out, the weekly dip removes Weekly on 2 of 7 days.
func meanIntensity(cfg Config) float64 {
	return 1 - 2*cfg.Weekly/7
}

func generateOpen(cfg Config, rng *rand.Rand) *Trace {
	tr := &Trace{Name: cfg.Name, Duration: cfg.Duration}
	next := 0
	// Warm start: TargetActive nodes alive at time zero; exponential
	// sessions are memoryless, so a fresh session is the correct residual.
	for i := 0; i < cfg.TargetActive; i++ {
		node := next
		next++
		tr.Initial = append(tr.Initial, node)
		tr.appendEvent(sampleSession(cfg, rng), node, Leave, cfg)
	}
	// Poisson arrivals at rate N/E[S] keep the population stationary.
	lambda := float64(cfg.TargetActive) / cfg.MeanSession.Seconds()
	t := 0.0
	for {
		t = nextArrival(cfg, rng, t, lambda)
		if t >= cfg.Duration.Seconds() {
			break
		}
		node := next
		next++
		tr.appendEvent(t, node, Join, cfg)
		tr.appendEvent(t+sampleSession(cfg, rng), node, Leave, cfg)
	}
	tr.Nodes = next
	tr.finish()
	return tr
}

func (tr *Trace) appendEvent(tSec float64, node int, kind Kind, cfg Config) {
	if tSec <= 0 || tSec >= cfg.Duration.Seconds() {
		return
	}
	tr.Events = append(tr.Events, Event{
		At:   time.Duration(tSec * float64(time.Second)),
		Node: node,
		Kind: kind,
	})
}

func (tr *Trace) finish() {
	sort.SliceStable(tr.Events, func(i, j int) bool { return tr.Events[i].At < tr.Events[j].At })
}

// sampleSession draws one session length in seconds.
func sampleSession(cfg Config, rng *rand.Rand) float64 {
	mean := cfg.MeanSession.Seconds()
	med := cfg.MedianSession.Seconds()
	if med <= 0 || med >= mean {
		return rng.ExpFloat64() * mean
	}
	// Lognormal with the requested mean and median:
	// median = e^mu, mean = e^(mu + sigma^2/2).
	mu := math.Log(med)
	sigma := math.Sqrt(2 * (math.Log(mean) - mu))
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// residualSession draws the remaining session time of a node that is
// already online at time zero. For a stationary alternating renewal
// process the observed session is length-biased and the residual is a
// uniform fraction of it: exponential sessions are memoryless (fresh
// sample), and the length-biased version of lognormal(mu, sigma) is
// lognormal(mu+sigma^2, sigma).
func residualSession(cfg Config, rng *rand.Rand) float64 {
	mean := cfg.MeanSession.Seconds()
	med := cfg.MedianSession.Seconds()
	if med <= 0 || med >= mean {
		return rng.ExpFloat64() * mean
	}
	mu := math.Log(med)
	sigma := math.Sqrt(2 * (math.Log(mean) - mu))
	biased := math.Exp(mu + sigma*sigma + sigma*rng.NormFloat64())
	return biased * rng.Float64()
}

// intensity is the arrival-intensity multiplier at time t (seconds),
// combining the daily and weekly patterns.
func intensity(cfg Config, tSec float64) float64 {
	v := 1.0
	if cfg.Diurnal > 0 {
		v *= 1 + cfg.Diurnal*math.Sin(2*math.Pi*tSec/86400)
	}
	if cfg.Weekly > 0 {
		// Days 5 and 6 of each week are the weekend.
		day := int(tSec/86400) % 7
		if day >= 5 {
			v *= 1 - cfg.Weekly
		}
	}
	if v < 0.05 {
		v = 0.05
	}
	return v
}
