package secure_test

import (
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/secure"
	"mspastry/internal/topology"
)

// overlay is a small simulated overlay with a secure layer on every node.
// reports counts the root reports each node sent: a root sends one for
// every secure lookup it delivers.
type overlay struct {
	sim     *eventsim.Simulator
	nodes   []*pastry.Node
	layers  []*secure.Layer
	reports map[id.ID]int
}

func newOverlay(t *testing.T, n int) *overlay {
	t.Helper()
	sim := eventsim.New(1)
	topo := topology.CorpNet(topology.CorpNetConfig{Hubs: 6, EdgeRouters: 30}, rand.New(rand.NewSource(1)))
	cfg := pastry.DefaultConfig()
	cfg.L = 8
	cfg.PNS = false
	o := &overlay{sim: sim, reports: make(map[id.ID]int)}
	nw := netmodel.New(sim, topo, 0)
	nw.OnSend(func(_ *netmodel.Endpoint, _ pastry.NodeRef, m pastry.Message, _ int) {
		if d, ok := m.(*pastry.AppDirect); ok && len(d.Payload) > 0 && d.Payload[0] == secure.KindReport {
			o.reports[d.From.ID]++
		}
	})
	c := nw.NewCluster(n, cfg, 5*time.Second, func(_ int, node *pastry.Node, ep *netmodel.Endpoint) {
		o.layers = append(o.layers, secure.New(node, ep, nil))
	})
	o.nodes = c.Nodes
	o.run(time.Minute)
	for i, node := range o.nodes {
		if !node.Active() {
			t.Fatalf("node %d not active", i)
		}
	}
	return o
}

func (o *overlay) run(d time.Duration) { o.sim.RunUntil(o.sim.Now() + d) }

// root returns the node closest to key.
func (o *overlay) root(key id.ID) *pastry.Node {
	best := o.nodes[0]
	for _, n := range o.nodes[1:] {
		if id.CloserToKey(key, n.Ref().ID, best.Ref().ID) {
			best = n
		}
	}
	return best
}

// TestSecureLookupHonestPath checks the no-adversary fast path: a secure
// lookup delivers normally, the root's report passes the failure test, the
// session closes without redundant rounds, and no one is distrusted.
func TestSecureLookupHonestPath(t *testing.T) {
	o := newOverlay(t, 8)
	origin := o.layers[0]
	key := o.nodes[5].Ref().ID
	root := o.root(key)

	seq, ok := origin.Lookup(key)
	if !ok {
		t.Fatal("lookup refused")
	}
	o.run(30 * time.Second)

	c := origin.Stats()
	if c.Reports == 0 || c.TestPass == 0 {
		t.Fatalf("no passing report: %+v", c)
	}
	if c.TestFail != 0 || c.Distrusted != 0 || c.GiveUps != 0 {
		t.Fatalf("honest path raised suspicion: %+v", c)
	}
	if origin.Open(seq) {
		t.Fatal("session not closed after accepted report")
	}
	if o.reports[root.Ref().ID] == 0 {
		t.Fatalf("true root %v never delivered", root.Ref().ID)
	}
}

// TestSecureLookupForgedReport injects a forged sparse report ahead of the
// honest one: the failure test must flag it, trigger an immediate
// redundant round, and — once the honest report wins the vote — distrust
// the forger (exclusion plus tripped breaker).
func TestSecureLookupForgedReport(t *testing.T) {
	o := newOverlay(t, 8)
	origin := o.layers[0]
	key := o.nodes[5].Ref().ID

	seq, ok := origin.Lookup(key)
	if !ok {
		t.Fatal("lookup refused")
	}
	// Forge a report from a far-away "colluder" with a two-node leaf set
	// before the honest root's report can arrive.
	colluder := pastry.NodeRef{ID: key.Distance(id.Half), Addr: "t-colluder"}
	o.nodes[0].Receive(&pastry.AppDirect{From: colluder, Payload: secure.EncodeReport(secure.Report{
		Seq: seq, Key: key, Leaves: []id.ID{id.New(1, 1), id.New(2, 2)},
	})})
	c := origin.Stats()
	if c.TestFail != 1 {
		t.Fatalf("forged report not flagged: %+v", c)
	}
	if c.RedundantRounds != 1 || c.RedundantSends == 0 {
		t.Fatalf("first suspicion did not trigger a redundant round: %+v", c)
	}

	o.run(30 * time.Second)
	c = origin.Stats()
	if c.TestPass == 0 {
		t.Fatalf("honest report never accepted: %+v", c)
	}
	if c.Distrusted != 1 {
		t.Fatalf("forger not distrusted after losing the vote: %+v", c)
	}
	if origin.Open(seq) {
		t.Fatal("session not closed")
	}
}

// dropReports is an app that loses every report before its layer sees it.
type dropReports struct{ *secure.Layer }

func (d dropReports) Direct(from pastry.NodeRef, payload []byte) {
	if len(payload) == 0 || payload[0] != secure.KindReport {
		d.Layer.Direct(from, payload)
	}
}

// TestSecureLookupGivesUpAfterMaxRounds starves the origin of reports
// entirely: the session must spend exactly MaxRounds redundant rounds and
// then close with a give-up.
func TestSecureLookupGivesUpAfterMaxRounds(t *testing.T) {
	o := newOverlay(t, 8)
	origin := o.layers[0]
	o.nodes[0].SetApp(dropReports{origin})

	seq, ok := origin.Lookup(id.Random(o.sim.Rand()))
	if !ok {
		t.Fatal("lookup refused")
	}
	o.run(2 * time.Minute)

	c := origin.Stats()
	if c.RedundantRounds != secure.MaxRounds {
		t.Fatalf("redundant rounds = %d, want %d", c.RedundantRounds, secure.MaxRounds)
	}
	if c.GiveUps != 1 {
		t.Fatalf("give-ups = %d, want 1", c.GiveUps)
	}
	if origin.Open(seq) {
		t.Fatal("session not closed after give-up")
	}
}

// TestDiverseFirstHops checks the redundancy fan-out selection: no
// duplicates, never self, respects the used set, and caps at Fanout.
func TestDiverseFirstHops(t *testing.T) {
	o := newOverlay(t, 10)
	n, l := o.nodes[0], o.layers[0]
	key := id.Random(o.sim.Rand())

	used := make(map[id.ID]bool)
	first := l.DiverseFirstHops(key, used)
	if len(first) == 0 || len(first) > secure.Fanout {
		t.Fatalf("round 1 picked %d hops, want 1..%d", len(first), secure.Fanout)
	}
	seen := make(map[id.ID]bool)
	for _, h := range first {
		if h.ID == n.Ref().ID {
			t.Fatal("picked self as first hop")
		}
		if seen[h.ID] {
			t.Fatalf("duplicate pick %v", h.ID)
		}
		seen[h.ID] = true
		used[h.ID] = true
	}
	for _, h := range l.DiverseFirstHops(key, used) {
		if used[h.ID] {
			t.Fatalf("round 2 reused first hop %v", h.ID)
		}
	}
}
