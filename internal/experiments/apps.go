package experiments

import (
	"math/rand"
	"reflect"
	"time"

	"mspastry/internal/dht"
	"mspastry/internal/harness"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/topology"
	"mspastry/internal/trace"
)

// dhtMount mounts a dht store on every node a run starts. An experiment
// embeds it and adds the Start that drives its workload.
type dhtMount struct {
	cfg dht.Config
	// stores holds every store mounted, crashed ones included: a crashed
	// node's counters freeze, so they cancel out of a before/after delta.
	stores []*dht.Store
	// bySlot and eps are each slot's current store and its endpoint.
	bySlot []*dht.Store
	eps    []*netmodel.Endpoint
	opened dht.Counters // the stores' counters when the window opened
}

func newDHTMount(nodes int, cfg dht.Config) *dhtMount {
	return &dhtMount{cfg: cfg, bySlot: make([]*dht.Store, nodes), eps: make([]*netmodel.Endpoint, nodes)}
}

// Mount implements harness.App: the store issues no lookups of the run's.
func (m *dhtMount) Mount(slot int, node *pastry.Node, ep *netmodel.Endpoint) harness.Issuer {
	s := dht.New(node, ep, m.cfg)
	m.stores = append(m.stores, s)
	m.bySlot[slot], m.eps[slot] = s, ep
	return nil
}

// dhtSettle is how long a dht experiment's workload waits after the join
// ramp before its first write, so the last joiners have activated.
const dhtSettle = time.Minute

// dhtRunConfig is the run the dht experiments share: the trace's nodes on
// a small seeded CorpNet, leaf sets of 8 without proximity selection,
// joining over two seconds a node, and no lookups but the application's.
func dhtRunConfig(seed int64, tr *trace.Trace, app harness.App) harness.Config {
	topo := topology.CorpNet(topology.CorpNetConfig{Hubs: 6, EdgeRouters: 30}, rand.New(rand.NewSource(seed)))
	cfg := harness.DefaultConfig(topo, tr)
	cfg.Pastry.L = 8
	cfg.Pastry.PNS = false
	cfg.LookupRate = 0
	cfg.SetupRamp = time.Duration(tr.Nodes) * 2 * time.Second
	cfg.Seed = seed
	cfg.App = app
	return cfg
}

// withCrashes adds a tenth of the trace's nodes (at least one) to it as
// crashes, one every gap from measured time at. The victims stride seven
// slots at a time and never include slot 0, the overlay's first node, so
// every mode of an experiment loses the same nodes.
func withCrashes(tr *trace.Trace, at, gap time.Duration) *trace.Trace {
	victim := 1
	for i := 0; i < max(1, tr.Nodes/10); i++ {
		victim = (victim + 7) % tr.Nodes
		if victim == 0 {
			victim = 1
		}
		tr.Events = append(tr.Events, trace.Event{At: at + time.Duration(i)*gap, Node: victim, Kind: trace.Leave})
	}
	return tr
}

// openWindow notes the stores' counters as a measured window opens.
func (m *dhtMount) openWindow() { m.opened = m.counters() }

// window returns what the stores counted since openWindow.
func (m *dhtMount) window() dht.Counters {
	c := m.counters()
	d, o := reflect.ValueOf(&c).Elem(), reflect.ValueOf(m.opened)
	for i := range d.NumField() {
		d.Field(i).SetUint(d.Field(i).Uint() - o.Field(i).Uint())
	}
	return c
}

func (m *dhtMount) counters() dht.Counters {
	var sum dht.Counters
	for _, s := range m.stores {
		sum.Add(s.Counters())
	}
	return sum
}
