package harness

import (
	"testing"

	"mspastry/internal/eventsim"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/trace"
)

// countingApp records every mount and checks it against the slot's
// previous one: a mount is always of a fresh node on a slot whose
// previous node is down.
type countingApp struct {
	t      *testing.T
	mounts int
	last   map[int]*pastry.Node
	starts int
}

func (a *countingApp) Mount(slot int, node *pastry.Node, ep *netmodel.Endpoint) Issuer {
	a.mounts++
	if prev := a.last[slot]; prev == node {
		a.t.Errorf("slot %d mounted the same node twice", slot)
	} else if prev != nil && prev.Alive() {
		a.t.Errorf("slot %d mounted while its previous node is still up", slot)
	}
	if ep.Node() != node || node.Active() {
		a.t.Errorf("slot %d mounted before Bind or after the node joined", slot)
	}
	a.last[slot] = node
	return nil
}

func (a *countingApp) Start(*eventsim.Simulator) { a.starts++ }

// TestAppMountedOncePerNodeStart runs the golden churn shape with an App
// and checks that it is mounted exactly once per node the run starts —
// the trace's initial nodes and every join of a slot that is down — and
// started once.
func TestAppMountedOncePerNodeStart(t *testing.T) {
	cfg := goldenChurnConfig(t)
	app := &countingApp{t: t, last: make(map[int]*pastry.Node)}
	cfg.App = app
	Run(cfg)

	up := make(map[int]bool)
	starts := 0
	for _, slot := range cfg.Trace.Initial {
		up[slot] = true
		starts++
	}
	for _, ev := range cfg.Trace.Events {
		switch {
		case ev.Kind == trace.Join && !up[ev.Node]:
			up[ev.Node] = true
			starts++
		case ev.Kind == trace.Leave:
			up[ev.Node] = false
		}
	}
	if starts <= len(cfg.Trace.Initial) {
		t.Fatalf("trace restarts no slot: %d starts for %d initial nodes", starts, len(cfg.Trace.Initial))
	}
	if app.mounts != starts {
		t.Errorf("%d mounts, want one per node start: %d", app.mounts, starts)
	}
	if app.starts != 1 {
		t.Errorf("workload started %d times, want once", app.starts)
	}
}
