// Package topology builds the simulated network topologies used by the
// MSPastry evaluation (paper §5.1): GATech (a transit-stub topology in the
// style of the Georgia Tech topology generator), Mercator (an AS-level
// hierarchical topology routed AS-path-first with an IP-hop-count proximity
// metric) and CorpNet (a small corporate network with a minimum-RTT metric).
//
// The paper's Mercator and CorpNet graphs come from proprietary measurement
// data; we generate synthetic graphs with the same construction recipe and
// the same proximity metrics (see DESIGN.md for the substitution argument).
//
// A Network exposes one-way delays between attached end nodes. Delays are
// symmetric and shortest-path; the network does not model congestion, which
// matches the simulator described in the paper.
package topology

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Metric identifies the proximity metric a topology reports.
type Metric int

const (
	// MetricRTT means distances are round-trip delays.
	MetricRTT Metric = iota + 1
	// MetricHops means distances are IP hop counts mapped to delay at a
	// fixed per-hop cost (the ratio structure, which is what RDP measures,
	// is unchanged by the mapping).
	MetricHops
)

func (m Metric) String() string {
	switch m {
	case MetricRTT:
		return "rtt"
	case MetricHops:
		return "hops"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

type edge struct {
	to     int
	weight float64 // routing weight (policy)
	delay  float64 // milliseconds contributed to the path
}

// Network is a generated router-level topology with end-node attachment
// points. It memoises single-source shortest-path results, so Delay lookups
// after warm-up are O(1).
type Network struct {
	name    string
	metric  Metric
	adj     [][]edge
	attach  []int     // endpoint -> router
	lanMS   []float64 // endpoint -> LAN link one-way delay (ms)
	srcVecs map[int][]float32
}

// Name returns the topology's name (gatech, mercator, corpnet).
func (n *Network) Name() string { return n.name }

// Metric returns the proximity metric of the topology.
func (n *Network) Metric() Metric { return n.metric }

// NumRouters returns the number of routers in the topology.
func (n *Network) NumRouters() int { return len(n.adj) }

// Attach connects count end nodes to routers chosen by the topology's
// attachment rule and returns the index of the first new endpoint. GATech
// and CorpNet attach through a 1 ms LAN link (as in the paper); Mercator
// attaches end nodes directly to routers.
func (n *Network) Attach(count int, rng *rand.Rand) int {
	first := len(n.attach)
	for i := 0; i < count; i++ {
		r := rng.Intn(len(n.adj))
		n.attach = append(n.attach, r)
		lan := 1.0
		if n.metric == MetricHops {
			lan = 0 // direct attachment, hop metric
		}
		n.lanMS = append(n.lanMS, lan)
	}
	return first
}

// Delay returns the one-way delay between endpoints a and b.
func (n *Network) Delay(a, b int) time.Duration {
	ms := n.delayMS(a, b)
	return time.Duration(ms * float64(time.Millisecond))
}

// RTT returns the round-trip delay between endpoints a and b, the proximity
// metric MSPastry uses.
func (n *Network) RTT(a, b int) time.Duration { return 2 * n.Delay(a, b) }

func (n *Network) delayMS(a, b int) float64 {
	if a == b {
		return 0
	}
	ra, rb := n.attach[a], n.attach[b]
	core := 0.0
	if ra != rb {
		core = float64(n.routerDelay(ra, rb))
	}
	return core + n.lanMS[a] + n.lanMS[b]
}

func (n *Network) routerDelay(src, dst int) float32 {
	vec, ok := n.srcVecs[src]
	if !ok {
		vec = n.dijkstra(src)
		n.srcVecs[src] = vec
	}
	return vec[dst]
}

// dijkstra computes shortest paths by routing weight from src and returns
// the accumulated *delay* along those routes, which is how policy-weighted
// routing (GATech) and AS-path-first routing (Mercator) are realised: the
// weight steers the route, the delay is what the route costs.
func (n *Network) dijkstra(src int) []float32 {
	const inf = float64(1e18)
	dist := make([]float64, len(n.adj))
	cost := make([]float64, len(n.adj))
	done := make([]bool, len(n.adj))
	for i := range cost {
		cost[i] = inf
		dist[i] = inf
	}
	cost[src] = 0
	dist[src] = 0
	pq := &pqueue{items: []pqItem{{node: src, cost: 0}}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, e := range n.adj[it.node] {
			c := it.cost + e.weight
			if c < cost[e.to] {
				cost[e.to] = c
				dist[e.to] = dist[it.node] + e.delay
				heap.Push(pq, pqItem{node: e.to, cost: c})
			}
		}
	}
	out := make([]float32, len(n.adj))
	for i := range out {
		out[i] = float32(dist[i])
	}
	return out
}

type pqItem struct {
	node int
	cost float64
}

type pqueue struct{ items []pqItem }

func (p *pqueue) Len() int           { return len(p.items) }
func (p *pqueue) Less(i, j int) bool { return p.items[i].cost < p.items[j].cost }
func (p *pqueue) Swap(i, j int)      { p.items[i], p.items[j] = p.items[j], p.items[i] }
func (p *pqueue) Push(x any)         { p.items = append(p.items, x.(pqItem)) }
func (p *pqueue) Pop() any {
	old := p.items
	n := len(old)
	it := old[n-1]
	p.items = old[:n-1]
	return it
}

func newNetwork(name string, metric Metric, routers int) *Network {
	return &Network{
		name:    name,
		metric:  metric,
		adj:     make([][]edge, routers),
		srcVecs: make(map[int][]float32),
	}
}

func (n *Network) addEdge(a, b int, weight, delayMS float64) {
	n.adj[a] = append(n.adj[a], edge{to: b, weight: weight, delay: delayMS})
	n.adj[b] = append(n.adj[b], edge{to: a, weight: weight, delay: delayMS})
}

// connectRing ensures the routers in ids form a connected subgraph by
// linking them in a random ring, then adds extra random chords for the
// requested average degree.
func (n *Network) connectCluster(ids []int, extraEdges int, minDelay, maxDelay float64, rng *rand.Rand) {
	if len(ids) <= 1 {
		return
	}
	perm := rng.Perm(len(ids))
	for i := 1; i < len(perm); i++ {
		d := minDelay + rng.Float64()*(maxDelay-minDelay)
		n.addEdge(ids[perm[i-1]], ids[perm[i]], d, d)
	}
	for i := 0; i < extraEdges; i++ {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if a == b {
			continue
		}
		d := minDelay + rng.Float64()*(maxDelay-minDelay)
		n.addEdge(a, b, d, d)
	}
}
