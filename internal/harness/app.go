package harness

import (
	"mspastry/internal/eventsim"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/secure"
)

// App is an application a run mounts on every node it starts, together
// with the workload that issues the application's operations. Set on
// Config.App; the secure-routing layer (SecureRouting), the dht store and
// the Squirrel proxy are each one.
type App interface {
	// Mount runs once per node incarnation: after the node is bound to
	// its endpoint and before it bootstraps or joins, the place where an
	// application registers itself as the node's pastry.App. A restarted
	// slot is mounted afresh. It returns what issues the lookups the run
	// generates for that node, or nil for the node's own Lookup.
	Mount(slot int, node *pastry.Node, ep *netmodel.Endpoint) Issuer
	// Start runs once, when measurement begins: the workload schedules
	// its operations on the run's simulator from there.
	Start(sim *eventsim.Simulator)
}

// Issuer issues one generated lookup for key and returns its sequence
// number, which the node's observer reports on delivery or drop.
type Issuer interface {
	Lookup(key id.ID) (seq uint64, ok bool)
}

// SecureRouting is the App that mounts the secure-routing layer
// (internal/secure) on every node and issues every generated lookup
// through it. Result.Secure totals the counters of every layer it
// mounted: a crashed node's layer stops counting with its node.
type SecureRouting struct{ layers []*secure.Layer }

// Mount implements App.
func (m *SecureRouting) Mount(_ int, node *pastry.Node, ep *netmodel.Endpoint) Issuer {
	l := secure.New(node, ep, nil)
	m.layers = append(m.layers, l)
	return l
}

// Start implements App: the layer's workload is the run's own lookups.
func (*SecureRouting) Start(*eventsim.Simulator) {}

func (m *SecureRouting) stats() secure.Counters {
	var c secure.Counters
	for _, l := range m.layers {
		c.Add(l.Stats())
	}
	return c
}
