package netmodel

import (
	"testing"
	"time"

	"mspastry/internal/pastry"
	"mspastry/internal/secure"
)

// buildTriangle wires three bootstrapped-and-joined nodes a, b, c and
// runs the sim until they know each other.
func buildTriangle(t *testing.T) (*Network, []*Endpoint, []*pastry.Node) {
	t.Helper()
	sim, nw := testNet(t, 0)
	base := nw.topo.Attach(3, sim.Rand())
	var eps []*Endpoint
	var nodes []*pastry.Node
	for i := 0; i < 3; i++ {
		ep := nw.NewEndpoint(base + i)
		eps = append(eps, ep)
		nodes = append(nodes, makeNode(t, nw, ep))
	}
	nodes[0].Bootstrap()
	nodes[1].Join(nodes[0].Ref())
	sim.RunUntil(30 * time.Second)
	nodes[2].Join(nodes[0].Ref())
	sim.RunUntil(90 * time.Second)
	for i, n := range nodes {
		if !n.Active() {
			t.Fatalf("node %d not active", i)
		}
	}
	return nw, eps, nodes
}

// TestAdversaryDropsTransitLookups checks the core interception: a
// malicious transit hop consumes lookups (counted under DropAdversary)
// and forges the per-hop ack so the sender never reroutes, while a
// malicious node that is itself the key's root delivers honestly.
func TestAdversaryDropsTransitLookups(t *testing.T) {
	nw, eps, nodes := buildTriangle(t)
	sim := nw.sim
	adv := nw.Adversary()
	adv.SetBehaviors(AdvDrop | AdvForgeAck)
	adv.Mark(eps[1].Addr())
	if !adv.malicious[eps[1].Addr()] || adv.Count() != 1 {
		t.Fatal("marking not recorded")
	}

	// A lookup for node 1's own id roots at node 1: the malicious node
	// must deliver it honestly (the at-root exemption).
	delivered := 0
	nodes[1].SetApp(appFunc(func(lk *pastry.Lookup) { delivered++ }))
	nodes[0].Lookup(nodes[1].Ref().ID, nil)
	sim.RunUntil(sim.Now() + 20*time.Second)
	if delivered != 1 {
		t.Fatalf("at-root lookup delivered %d times, want 1 (exemption)", delivered)
	}
	if adv.Stats.LookupsDropped != 0 {
		t.Fatalf("at-root lookup dropped: %+v", adv.Stats)
	}

	// A routed envelope through node 1 for a key rooting elsewhere is
	// consumed and acked.
	before := nw.DropsByCause[DropAdversary]
	lk := &pastry.Lookup{Key: nodes[2].Ref().ID, Seq: 99, Origin: nodes[0].Ref()}
	eps[0].Send(nodes[1].Ref(), &pastry.Envelope{Xfer: 7, NeedAck: true, From: nodes[0].Ref(), Lookup: lk})
	sim.RunUntil(sim.Now() + 20*time.Second)
	if got := nw.DropsByCause[DropAdversary] - before; got != 1 {
		t.Fatalf("adversary drops = %d, want 1", got)
	}
	if adv.Stats.LookupsDropped != 1 || adv.Stats.AcksForged != 1 {
		t.Fatalf("stats = %+v, want 1 drop and 1 forged ack", adv.Stats)
	}
}

// TestAdversaryMisroutesToColluder checks colluder forwarding: with two
// marked nodes, a lookup intercepted by the farther colluder is passed
// to the one closer to the key, which claims the root and forges a
// completion report to the origin.
func TestAdversaryMisroutesToColluder(t *testing.T) {
	nw, eps, nodes := buildTriangle(t)
	sim := nw.sim
	adv := nw.Adversary()
	adv.SetBehaviors(AdvMisroute)
	adv.Mark(eps[1].Addr())
	adv.Mark(eps[2].Addr())

	// Key = colluder 2's id, origin node 0: whichever colluder
	// intercepts, colluder 2 is the closest colluder... but it is also
	// the true root, so use a key rooted at node 0 instead and inject
	// the envelope at colluder 1 directly.
	key := nodes[0].Ref().ID
	lk := &pastry.Lookup{Key: key, Seq: 5, Origin: nodes[2].Ref(), Payload: []byte{secure.KindRequest}}
	eps[0].Send(nodes[1].Ref(), &pastry.Envelope{From: nodes[0].Ref(), Lookup: lk})
	sim.RunUntil(sim.Now() + 20*time.Second)

	// Node 1 is not the root for key (node 0 is) and is malicious: it
	// either forwarded to a closer colluder or claimed the root itself.
	if adv.Stats.LookupsMisrouted+adv.Stats.RootClaims == 0 {
		t.Fatalf("no misroute activity: %+v", adv.Stats)
	}
	if adv.Stats.RootClaims == 0 {
		t.Fatalf("capture never terminated in a root claim: %+v", adv.Stats)
	}
	if adv.Stats.ReportsForged == 0 {
		t.Fatalf("a capture of a report-requesting lookup forged no report: %+v", adv.Stats)
	}
}

// TestAdversaryPoisonsAdvertisements checks the outbound rewrite: row
// replies leaving a malicious node advertise colluders instead of its
// real routing entries, while leaf-set membership stays honest.
func TestAdversaryPoisonsAdvertisements(t *testing.T) {
	nw, eps, nodes := buildTriangle(t)
	adv := nw.Adversary()
	adv.SetBehaviors(AdvPoison)
	adv.Mark(eps[1].Addr())
	adv.Mark(eps[2].Addr())

	reply := &pastry.RowReply{From: nodes[1].Ref(), Row: 0,
		Entries: []pastry.NodeRef{nodes[0].Ref()}}
	out := adv.rewriteOutbound(eps[1], nodes[0].Ref(), reply)
	rr, ok := out.(*pastry.RowReply)
	if !ok {
		t.Fatalf("rewrite changed type: %T", out)
	}
	if rr == reply {
		t.Fatal("poisoned reply must be a copy, not a mutation")
	}
	for _, e := range rr.Entries {
		if !adv.malicious[e.Addr] {
			t.Fatalf("poisoned entry %v is not a colluder", e)
		}
		if e.ID == nodes[1].Ref().ID {
			t.Fatal("poisoned entries must not include the sender itself")
		}
	}
	if adv.Stats.MessagesPoisoned != 1 {
		t.Fatalf("MessagesPoisoned = %d", adv.Stats.MessagesPoisoned)
	}

	// Leaf-set membership is not rewritten.
	probe := &pastry.LSProbe{From: nodes[1].Ref(), Leaves: []pastry.NodeRef{nodes[0].Ref()}}
	if out := adv.rewriteOutbound(eps[1], nodes[0].Ref(), probe); out != probe {
		t.Fatal("LSProbe membership must stay honest")
	}
	// Honest senders are never rewritten.
	if out := adv.rewriteOutbound(eps[0], nodes[1].Ref(), reply); out != reply {
		t.Fatal("honest sender's reply was rewritten")
	}
}

// appFunc adapts a delivery closure to pastry.App.
type appFunc func(lk *pastry.Lookup)

func (f appFunc) Deliver(lk *pastry.Lookup)                { f(lk) }
func (appFunc) Forward(*pastry.Lookup) bool                { return true }
func (appFunc) Direct(from pastry.NodeRef, payload []byte) {}
