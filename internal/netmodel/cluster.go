package netmodel

import (
	"time"

	"mspastry/internal/id"
	"mspastry/internal/pastry"
)

// Cluster is a static simulated overlay built by NewCluster: Nodes[i] is
// bound to Eps[i], and node 0 bootstrapped the overlay.
type Cluster struct {
	Eps   []*Endpoint
	Nodes []*pastry.Node
}

// NewCluster attaches n fresh endpoints to the topology and starts one
// node on each, spacing apart: the first bootstraps, the rest join
// through it. each, when non-nil, runs once per node after Bind and
// before the node joins — the place to attach an application layer.
// Anything that must see the join traffic (OnSend, SetServiceModel) is
// set on the network before the call; letting the overlay settle
// afterwards is the caller's RunUntil.
//
// The draw order is fixed — Attach, then per node: id, NewNode, Bind,
// each, Bootstrap or Join, run spacing — so a seeded caller's numbers do
// not depend on who wrote the loop. It panics on a cfg that does not
// validate: the configuration is the caller's literal, not input.
func (nw *Network) NewCluster(n int, cfg pastry.Config, spacing time.Duration, each func(i int, node *pastry.Node, ep *Endpoint)) Cluster {
	sim := nw.sim
	first := nw.topo.Attach(n, sim.Rand())
	c := Cluster{Eps: make([]*Endpoint, n), Nodes: make([]*pastry.Node, n)}
	for i := range c.Nodes {
		ep := nw.NewEndpoint(first + i)
		ref := pastry.NodeRef{ID: id.Random(sim.Rand()), Addr: ep.Addr()}
		node, err := pastry.NewNode(ref, cfg, ep, nil)
		if err != nil {
			panic("netmodel: " + err.Error())
		}
		ep.Bind(node)
		c.Eps[i], c.Nodes[i] = ep, node
		if each != nil {
			each(i, node, ep)
		}
		if i == 0 {
			node.Bootstrap()
		} else {
			node.Join(c.Nodes[0].Ref())
		}
		sim.RunUntil(sim.Now() + spacing)
	}
	return c
}
