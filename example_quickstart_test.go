package mspastry_test

import (
	"fmt"
	"math/rand"
	"time"

	"mspastry"
)

// Build a 64-node MSPastry overlay in the simulator, issue lookups, and
// verify that every lookup is delivered by the node whose identifier is
// closest to the key (consistent routing).
func Example_quickstart() {
	sim := mspastry.NewSimulator(42)
	topo := mspastry.NewCorpNetTopology(mspastry.DefaultCorpNetConfig(), rand.New(rand.NewSource(42)))
	net := mspastry.NewSimNetwork(sim, topo, 0)

	cfg := mspastry.DefaultConfig()
	cfg.L = 16

	const n = 64
	// Each node gets an application that records where lookups end up.
	var last mspastry.NodeRef
	cluster := net.NewCluster(n, cfg, 2*time.Second, func(_ int, node *mspastry.Node, _ *mspastry.Endpoint) {
		node.SetApp(rootRecorder{node: node, last: &last})
	})
	nodes := cluster.Nodes
	sim.RunUntil(sim.Now() + time.Minute)

	active := 0
	for _, node := range nodes {
		if node.Active() {
			active++
		}
	}
	fmt.Printf("overlay formed: %d/%d nodes active after %v of virtual time\n", active, n, sim.Now())

	// Issue lookups from random nodes to random keys and check each is
	// delivered at the true root.
	correct, total := 0, 0
	for i := 0; i < 200; i++ {
		key := mspastry.RandomID(sim.Rand())
		src := nodes[sim.Rand().Intn(len(nodes))]
		if _, ok := src.Lookup(key, nil); !ok {
			continue
		}
		sim.RunUntil(sim.Now() + 2*time.Second)
		if last.ID == trueRoot(nodes, key).Ref().ID {
			correct++
		}
		total++
	}
	fmt.Printf("lookups: %d/%d delivered at the true root\n", correct, total)
	// Output:
	// overlay formed: 64/64 nodes active after 3m8s of virtual time
	// lookups: 200/200 delivered at the true root
}

// rootRecorder is the smallest application: it notes which node a lookup
// was delivered at, that is, which node believed itself the key's root.
type rootRecorder struct {
	node *mspastry.Node
	last *mspastry.NodeRef
}

func (r rootRecorder) Deliver(*mspastry.Lookup) { *r.last = r.node.Ref() }

func (r rootRecorder) Forward(*mspastry.Lookup) bool { return true }

func (r rootRecorder) Direct(mspastry.NodeRef, []byte) {}

func trueRoot(nodes []*mspastry.Node, key mspastry.ID) *mspastry.Node {
	best := nodes[0]
	for _, n := range nodes[1:] {
		if n.Active() && key.Distance(n.Ref().ID).Cmp(key.Distance(best.Ref().ID)) < 0 {
			best = n
		}
	}
	return best
}
