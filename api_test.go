package mspastry

import (
	"math/rand"
	"testing"
	"time"
)

// TestPublicAPIOverlayFlow exercises the full public surface: topology,
// simulator, network, node lifecycle, lookups and the Squirrel application
// layer — everything a downstream user can reach.
func TestPublicAPIOverlayFlow(t *testing.T) {
	sim := NewSimulator(1)
	topo := NewCorpNetTopology(DefaultCorpNetConfig(), rand.New(rand.NewSource(1)))
	net := NewSimNetwork(sim, topo, 0)

	cfg := DefaultConfig()
	cfg.L = 8

	const n = 12
	first := topo.Attach(n, sim.Rand())
	obs := &apiObserver{}
	var nodes []*Node
	var seed NodeRef
	for i := 0; i < n; i++ {
		ep := net.NewEndpoint(first + i)
		ref := NodeRef{ID: RandomID(sim.Rand()), Addr: ep.Addr()}
		node, err := NewNode(ref, cfg, ep, obs)
		if err != nil {
			t.Fatal(err)
		}
		ep.Bind(node)
		if i == 0 {
			node.Bootstrap()
			seed = ref
		} else {
			node.Join(seed)
		}
		nodes = append(nodes, node)
		sim.RunUntil(sim.Now() + 2*time.Second)
	}
	sim.RunUntil(sim.Now() + time.Minute)
	for i, node := range nodes {
		if !node.Active() {
			t.Fatalf("node %d not active", i)
		}
	}

	key := KeyFromString("object-1")
	if _, ok := nodes[3].Lookup(key, []byte("x")); !ok {
		t.Fatal("lookup refused")
	}
	sim.RunUntil(sim.Now() + 5*time.Second)
	if obs.delivered == 0 {
		t.Fatal("lookup not delivered through the public API")
	}
}

type apiObserver struct{ delivered int }

func (o *apiObserver) Activated(*Node, time.Duration)           {}
func (o *apiObserver) Delivered(*Node, *Lookup)                 { o.delivered++ }
func (o *apiObserver) LookupDropped(*Node, *Lookup, DropReason) {}

// TestPublicAPIExperiment runs a tiny harness experiment end to end via
// the public wrappers.
func TestPublicAPIExperiment(t *testing.T) {
	topo, err := BuildTopology("gatech", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := GenerateTrace(PoissonTrace(time.Hour, 40, 20*time.Minute))
	cfg := DefaultExperiment(topo, tr)
	cfg.SetupRamp = time.Minute
	res := RunExperiment(cfg)
	if res.Totals.MeanActive < 30 {
		t.Fatalf("mean active = %v", res.Totals.MeanActive)
	}
	if res.Totals.IncorrectRate != 0 {
		t.Fatalf("incorrect deliveries: %v", res.Totals.IncorrectRate)
	}
}

// TestPublicAPITraceConfigs checks the trace constructors carry the
// paper's published statistics.
func TestPublicAPITraceConfigs(t *testing.T) {
	g := GnutellaTrace()
	if g.Population != 17000 || g.Duration != 60*time.Hour {
		t.Fatalf("gnutella config drifted: %+v", g)
	}
	o := OverNetTrace()
	if o.Population != 1468 || o.Duration != 7*24*time.Hour {
		t.Fatalf("overnet config drifted: %+v", o)
	}
	m := MicrosoftTrace()
	if m.Population != 20000 || m.Duration != 37*24*time.Hour {
		t.Fatalf("microsoft config drifted: %+v", m)
	}
}

// TestPublicAPIConfigDefaults pins the paper's base parameters.
func TestPublicAPIConfigDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.B != 4 || cfg.L != 32 {
		t.Fatalf("b/l defaults drifted: b=%d l=%d", cfg.B, cfg.L)
	}
	// MinTrt is (probe retries + 1) timeouts: 2 retries, as in the paper.
	if cfg.Tls != 30*time.Second || cfg.To != 3*time.Second || cfg.MinTrt() != 3*cfg.To {
		t.Fatal("failure-detection defaults drifted")
	}
	if !cfg.PerHopAcks || !cfg.ActiveProbing || cfg.TargetRawLoss != 0.05 {
		t.Fatal("reliability defaults drifted")
	}
	if !cfg.PNS || cfg.DistProbeSpacing != time.Second || cfg.RTMaintenance != 20*time.Minute {
		t.Fatal("PNS defaults drifted")
	}
}
