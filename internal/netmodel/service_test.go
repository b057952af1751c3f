package netmodel

import (
	"testing"
	"time"

	"mspastry/internal/overload"
	"mspastry/internal/pastry"
)

// TestServiceModelBoundsRate checks that a bound endpoint consumes
// messages at the configured rate rather than instantaneously: 10
// arrivals at a 2/s service rate take ~5 simulated seconds to process.
func TestServiceModelBoundsRate(t *testing.T) {
	sim, nw := testNet(t, 0)
	nw.SetServiceModel(ServiceModel{QueueLimit: 64, Rate: 2})
	a := nw.NewEndpoint(nw.topo.Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	nb := makeNode(t, nw, b)
	// Neither node is bootstrapped: heartbeats generate no replies, so
	// the only traffic is the one-way burst below.
	for i := 0; i < 10; i++ {
		a.Send(nb.Ref(), &pastry.Heartbeat{From: na.Ref()})
	}
	delay := nw.topo.Delay(a.Index(), b.Index())

	// After the propagation delay plus 4 service slots, at most 4 of the
	// 10 heartbeats can have been processed.
	sim.RunUntil(delay + 4*500*time.Millisecond + time.Millisecond)
	if b.LoadFactor() == 0 {
		t.Fatal("service queue drained faster than the configured rate")
	}
	// Ten slots in, everything has been processed.
	sim.RunUntil(delay + 10*500*time.Millisecond + time.Millisecond)
	if b.LoadFactor() != 0 {
		t.Fatalf("service queue not drained: load=%v", b.LoadFactor())
	}
	if !nb.Alive() {
		t.Fatal("receiver died")
	}
	if got := nw.DropsByCause[DropOverload]; got != 0 {
		t.Fatalf("unexpected overload drops: %d", got)
	}
}

// TestServiceModelShedsLowestPriorityFirst floods an endpoint past its
// queue bound with bulk traffic, then delivers liveness traffic: the
// liveness messages must displace bulk ones, never be shed themselves.
func TestServiceModelShedsLowestPriorityFirst(t *testing.T) {
	sim, nw := testNet(t, 0)
	nw.SetServiceModel(ServiceModel{QueueLimit: 8, Rate: 1})
	a := nw.NewEndpoint(nw.topo.Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	nb := makeNode(t, nw, b)
	na.Bootstrap()
	nb.Bootstrap()

	// 12 bulk messages against a queue of 8: 4 shed as bulk.
	for i := 0; i < 12; i++ {
		a.Send(nb.Ref(), &pastry.AppDirect{From: na.Ref(), Payload: []byte{1}})
	}
	// 4 heartbeats displace 4 more bulk messages.
	for i := 0; i < 4; i++ {
		a.Send(nb.Ref(), &pastry.Heartbeat{From: na.Ref()})
	}
	delay := nw.topo.Delay(a.Index(), b.Index())
	sim.RunUntil(delay + time.Millisecond)

	if got := nw.ShedByLane[overload.LaneBulk]; got != 8 {
		t.Fatalf("bulk sheds = %d, want 8", got)
	}
	if got := nw.ShedByLane[overload.LaneLiveness]; got != 0 {
		t.Fatalf("liveness sheds = %d, want 0", got)
	}
	if got := nw.DropsByCause[DropOverload]; got != 8 {
		t.Fatalf("overload drops = %d, want 8", got)
	}
	// Injected-fault accounting must not count overload sheds.
	if nw.Drops() != 0 {
		t.Fatalf("Drops = %d, want 0 (overload is not an injected fault)", nw.Drops())
	}
}

// TestServiceQueueDiesWithEndpoint checks that queued work is discarded
// when the endpoint fails, and accounted as dead-endpoint drops.
func TestServiceQueueDiesWithEndpoint(t *testing.T) {
	sim, nw := testNet(t, 0)
	nw.SetServiceModel(ServiceModel{QueueLimit: 16, Rate: 1})
	a := nw.NewEndpoint(nw.topo.Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	nb := makeNode(t, nw, b)
	na.Bootstrap()
	nb.Bootstrap()

	for i := 0; i < 6; i++ {
		a.Send(nb.Ref(), &pastry.AppDirect{From: na.Ref(), Payload: []byte{1}})
	}
	delay := nw.topo.Delay(a.Index(), b.Index())
	sim.RunUntil(delay + time.Millisecond)
	if b.LoadFactor() == 0 {
		t.Fatal("no work queued before failure")
	}
	before := nw.DropsByCause[DropDeadEndpoint]
	b.Fail()
	if b.LoadFactor() != 0 {
		t.Fatal("queue survived endpoint failure")
	}
	if got := nw.DropsByCause[DropDeadEndpoint] - before; got == 0 {
		t.Fatal("drained queue not accounted as dead-endpoint drops")
	}
	// The pending service timer must be harmless after the failure.
	sim.RunUntil(sim.Now() + 5*time.Second)
}
