package netmodel

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/id"
	"mspastry/internal/pastry"
)

// deliveryLog records lookup deliveries at a node: sequence and time.
type deliveryLog struct {
	sim   *eventsim.Simulator
	seqs  []uint64
	times []time.Duration
}

func (o *deliveryLog) Activated(*pastry.Node, time.Duration) {}
func (o *deliveryLog) Delivered(n *pastry.Node, lk *pastry.Lookup) {
	o.seqs = append(o.seqs, lk.Seq)
	o.times = append(o.times, o.sim.Now())
}
func (o *deliveryLog) LookupDropped(*pastry.Node, *pastry.Lookup, pastry.DropReason) {}

// rootWithLog builds a two-endpoint net where b is a bootstrapped
// singleton (the root of every key) with a delivery log attached.
func rootWithLog(t *testing.T) (*eventsim.Simulator, *Network, *Endpoint, *Endpoint, *pastry.Node, *deliveryLog) {
	t.Helper()
	sim, nw := testNet(t, 0)
	a := nw.NewEndpoint(nw.topo.Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	makeNode(t, nw, a)
	log := &deliveryLog{sim: sim}
	nodeSalt++
	ref := pastry.NodeRef{ID: id.New(uint64(b.Index()+1), nodeSalt), Addr: b.Addr()}
	nb, err := pastry.NewNode(ref, pastry.DefaultConfig(), b, log)
	if err != nil {
		t.Fatal(err)
	}
	b.Bind(nb)
	nb.Bootstrap()
	return sim, nw, a, b, nb, log
}

// armNow arms ft at once and for good, for tests that send before the
// simulator first runs (At arms in an event).
func armNow(nw *Network, ft Fault) { nw.Faults().toggle(ft, true) }

func lookupEnvelope(from *pastry.Node, seq uint64) *pastry.Envelope {
	return &pastry.Envelope{
		Xfer: seq,
		From: from.Ref(),
		Lookup: &pastry.Lookup{
			Key:    id.New(42, seq),
			Seq:    seq,
			Origin: from.Ref(),
			NoAck:  true,
		},
	}
}

func TestPartitionDropsCrossSideAndHeals(t *testing.T) {
	sim, nw := testNet(t, 0)
	a := nw.NewEndpoint(nw.topo.Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	nb := makeNode(t, nw, b)
	sideA := func(addr string) bool { return addr == a.Addr() }
	nw.Faults().At(0, time.Minute, Fault{Partition: sideA})

	// During the partition the probe (and any reply) is dropped.
	sim.RunUntil(time.Second)
	a.Send(nb.Ref(), &pastry.DistProbe{From: na.Ref(), Seq: 1})
	sim.RunUntil(30 * time.Second)
	if na.Table().Contains(nb.Ref().ID) {
		t.Fatal("message crossed an active partition")
	}
	if nw.DropsByCause[DropPartition] == 0 {
		t.Fatal("partition drop not accounted")
	}
	// After the heal the same probe goes through.
	sim.RunUntil(61 * time.Second)
	a.Send(nb.Ref(), &pastry.DistProbe{From: na.Ref(), Seq: 2})
	sim.RunUntil(90 * time.Second)
	if !na.Table().Contains(nb.Ref().ID) {
		t.Fatal("message dropped after the partition healed")
	}
}

func TestPartitionSameSideDelivers(t *testing.T) {
	sim, nw := testNet(t, 0)
	a := nw.NewEndpoint(nw.topo.Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	nb := makeNode(t, nw, b)
	// Both endpoints on side A: traffic between them is unaffected.
	armNow(nw, Fault{Partition: func(string) bool { return true }})
	a.Send(nb.Ref(), &pastry.DistProbe{From: na.Ref(), Seq: 1})
	sim.RunUntil(10 * time.Second)
	if !na.Table().Contains(nb.Ref().ID) {
		t.Fatal("same-side message dropped")
	}
}

func TestAsymmetricLinkLoss(t *testing.T) {
	sim, nw := testNet(t, 0)
	a := nw.NewEndpoint(nw.topo.Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	nb := makeNode(t, nw, b)
	// Lose everything a→b; leave b→a untouched.
	armNow(nw, Fault{From: a.Addr(), To: b.Addr(), LinkLoss: 0.999999})
	for i := 0; i < 50; i++ {
		a.Send(nb.Ref(), &pastry.Heartbeat{From: na.Ref()})
	}
	for i := 0; i < 50; i++ {
		b.Send(na.Ref(), &pastry.Heartbeat{From: nb.Ref()})
	}
	sim.RunUntil(10 * time.Second)
	if got := nw.DropsByCause[DropLinkLoss]; got < 45 {
		t.Fatalf("a→b link loss dropped %d of 50", got)
	}
	// b→a heartbeats arrived: a noted contact from b.
	if !na.Table().Contains(nb.Ref().ID) {
		t.Fatal("reverse direction was lossy too (asymmetry broken)")
	}
	if nb.Table().Contains(na.Ref().ID) {
		t.Fatal("forward direction leaked messages")
	}
}

func TestDelaySpikeShiftsDelivery(t *testing.T) {
	sim, nw, a, b, _, log := rootWithLog(t)
	na := a.nw.eps[a.Addr()].node
	const extra = 5 * time.Second
	armNow(nw, Fault{Spike: extra})
	a.Send(b.node.Ref(), lookupEnvelope(na, 1))
	base := nw.topo.Delay(a.Index(), b.Index())
	sim.RunUntil(base + extra - time.Millisecond)
	if len(log.seqs) != 0 {
		t.Fatal("delivered before the spike delay elapsed")
	}
	sim.RunUntil(base + extra + time.Millisecond)
	if len(log.seqs) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(log.seqs))
	}
}

// TestOverlappingSpikeWindows pins what two windows of one kind do: the
// later arm wins, and the earlier window's end disarms the kind although
// the later window is still open.
func TestOverlappingSpikeWindows(t *testing.T) {
	sim, nw, a, b, _, log := rootWithLog(t)
	na := a.nw.eps[a.Addr()].node
	nw.Faults().At(0, time.Minute, Fault{Spike: time.Second})
	nw.Faults().At(30*time.Second, time.Minute, Fault{Spike: 2 * time.Second})
	base := nw.topo.Delay(a.Index(), b.Index())
	sends := []struct{ at, spike time.Duration }{
		{15 * time.Second, time.Second},
		{45 * time.Second, 2 * time.Second},
		{75 * time.Second, 0},
	}
	for i, s := range sends {
		sim.RunUntil(s.at)
		a.Send(b.node.Ref(), lookupEnvelope(na, uint64(i+1)))
	}
	sim.RunUntil(2 * time.Minute)
	if len(log.times) != len(sends) {
		t.Fatalf("delivered %d of %d", len(log.times), len(sends))
	}
	for i, s := range sends {
		if got := log.times[i] - s.at - base; got != s.spike {
			t.Errorf("sent at %v: spike %v, want %v", s.at, got, s.spike)
		}
	}
}

// TestFaultAtRejects covers every window At refuses to arm; each panic
// names the offending field.
func TestFaultAtRejects(t *testing.T) {
	_, nw := testNet(t, 0)
	for _, c := range []struct {
		name string
		dur  time.Duration
		ft   Fault
	}{
		{"Fault.LinkLoss", time.Second, Fault{LinkLoss: -0.1}},
		{"Fault.LinkLoss", time.Second, Fault{LinkLoss: 1}},
		{"Fault.Duplicate", time.Second, Fault{Duplicate: -0.1}},
		{"Fault.Duplicate", time.Second, Fault{Duplicate: 1}},
		{"Fault.Reorder", time.Second, Fault{Reorder: -0.1, ReorderMax: time.Second}},
		{"Fault.Reorder", time.Second, Fault{Reorder: 1, ReorderMax: time.Second}},
		{"Fault.Spike", time.Second, Fault{Spike: -time.Second}},
		{"Fault.Jitter", time.Second, Fault{Jitter: -time.Second}},
		{"Fault.ReorderMax", time.Second, Fault{Reorder: 0.5}},
		{"Fault.ReorderMax", time.Second, Fault{Reorder: 0.5, ReorderMax: -time.Second}},
		{"dur", 0, Fault{Spike: time.Second}},
		{"dur", -time.Second, Fault{Spike: time.Second}},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.name) {
					t.Errorf("At(0, %v, %+v) panicked with %v, want one naming %s", c.dur, c.ft, r, c.name)
				}
			}()
			nw.Faults().At(0, c.dur, c.ft)
		}()
	}
	// The boundaries themselves arm.
	nw.Faults().At(0, time.Nanosecond, Fault{LinkLoss: 0.999, Duplicate: 0.999, Reorder: 0.999, ReorderMax: time.Nanosecond})
}

func TestJitterBounded(t *testing.T) {
	sim, nw, a, b, nb, log := rootWithLog(t)
	na := a.nw.eps[a.Addr()].node
	const maxJitter = 2 * time.Second
	armNow(nw, Fault{Jitter: maxJitter})
	const n = 200
	for i := uint64(1); i <= n; i++ {
		a.Send(nb.Ref(), lookupEnvelope(na, i))
	}
	sim.RunUntil(time.Minute)
	if len(log.seqs) != n {
		t.Fatalf("delivered %d of %d", len(log.seqs), n)
	}
	base := nw.topo.Delay(a.Index(), b.Index())
	var sawDelayed bool
	for _, at := range log.times {
		if at < base || at > base+maxJitter {
			t.Fatalf("delivery at %v outside [%v, %v]", at, base, base+maxJitter)
		}
		if at > base+maxJitter/4 {
			sawDelayed = true
		}
	}
	if !sawDelayed {
		t.Fatal("jitter had no visible effect")
	}
}

func TestDuplicationDeliversCopies(t *testing.T) {
	sim, nw, a, _, nb, log := rootWithLog(t)
	na := a.nw.eps[a.Addr()].node
	armNow(nw, Fault{Duplicate: 0.5})
	const n = 200
	for i := uint64(1); i <= n; i++ {
		a.Send(nb.Ref(), lookupEnvelope(na, i))
	}
	sim.RunUntil(time.Minute)
	// Duplicated counts every duplicated message on the network (the
	// root's own probe traffic included), so it bounds the extra lookup
	// deliveries from above.
	dup := nw.FaultCounts.Duplicated
	if dup < 60 {
		t.Fatalf("duplicated only %d messages at p=0.5 over %d sends", dup, n)
	}
	extra := uint64(len(log.seqs)) - n
	if extra == 0 {
		t.Fatal("no duplicate lookup was delivered")
	}
	if extra > dup {
		t.Fatalf("delivered %d extra lookups but only %d duplications occurred", extra, dup)
	}
}

// A duplicated hop is two receivers' copies, and each is its own: each
// sends the ack inline in it and carries the lookup on in itself, so the
// two acks and the two forwards are four distinct objects, and the
// sender's lookup is never written.
func TestDuplicatedHopAcksAndForwardsIndependently(t *testing.T) {
	nw, eps, nodes := buildTriangle(t)
	na, nb, nc := nodes[0], nodes[1], nodes[2]
	env := &pastry.Envelope{Xfer: 1 << 60, NeedAck: true, From: na.Ref(),
		Lookup: &pastry.Lookup{Key: nc.Ref().ID, Seq: 1, Origin: na.Ref()}}
	var acks []*pastry.Ack
	var forwards []*pastry.Envelope
	nw.OnSend(func(from *Endpoint, to pastry.NodeRef, m pastry.Message, _ int) {
		switch m := m.(type) {
		case *pastry.Ack:
			if from == eps[1] && m.Xfer == env.Xfer {
				acks = append(acks, m)
			}
		case *pastry.Envelope:
			if from == eps[1] && m.Lookup != nil && m.Lookup.Seq == 1 {
				forwards = append(forwards, m)
			}
		}
	})
	armNow(nw, Fault{Duplicate: 0.999999})
	delivered := rooted.delivered[nc.Ref().ID]
	eps[0].Send(nb.Ref(), env)
	nw.sim.RunUntil(nw.sim.Now() + time.Second)
	if len(acks) != 2 || acks[0] == acks[1] || len(forwards) != 2 || forwards[0] == forwards[1] ||
		forwards[0].Lookup == forwards[1].Lookup {
		t.Fatalf("b sent acks %v and forwards %v, want two of each, all distinct", acks, forwards)
	}
	for _, f := range forwards {
		if f == env || f.Lookup == env.Lookup || f.From != nb.Ref() || f.Lookup.Hops != 1 {
			t.Fatalf("forward %#v is not a copy of its own", f)
		}
	}
	// Each forward is duplicated too.
	if got := rooted.delivered[nc.Ref().ID] - delivered; got != 4 {
		t.Fatalf("the root delivered %d copies, want 4", got)
	}
	if env.Lookup.Hops != 0 || env.From != na.Ref() {
		t.Fatal("a receiver wrote the sender's envelope")
	}
}

func TestReorderingOvertakes(t *testing.T) {
	sim, nw, a, _, nb, log := rootWithLog(t)
	na := a.nw.eps[a.Addr()].node
	// Near-certain holdback with a large bound: earlier messages routinely
	// land after later ones.
	armNow(nw, Fault{Reorder: 0.5, ReorderMax: 3 * time.Second})
	const n = 100
	for i := uint64(1); i <= n; i++ {
		a.Send(nb.Ref(), lookupEnvelope(na, i))
	}
	sim.RunUntil(time.Minute)
	if len(log.seqs) != n {
		t.Fatalf("delivered %d of %d (reordering must not lose messages)", len(log.seqs), n)
	}
	inverted := 0
	for i := 1; i < len(log.seqs); i++ {
		if log.seqs[i] < log.seqs[i-1] {
			inverted++
		}
	}
	if inverted == 0 {
		t.Fatal("no message overtook another")
	}
	if nw.FaultCounts.Reordered == 0 {
		t.Fatal("reordering not accounted")
	}
}

func TestDropClassificationChurnArtifacts(t *testing.T) {
	sim, nw := testNet(t, 0)
	a := nw.NewEndpoint(nw.topo.Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	nb := makeNode(t, nw, b)

	// Unknown endpoint.
	a.Send(pastry.NodeRef{ID: id.New(1, 99), Addr: "9999"}, &pastry.Heartbeat{From: na.Ref()})
	if nw.DropsByCause[DropUnknownEndpoint] != 1 {
		t.Fatalf("unknown-endpoint drops = %d, want 1", nw.DropsByCause[DropUnknownEndpoint])
	}

	// Dead endpoint: failed before delivery.
	oldRef := nb.Ref()
	a.Send(oldRef, &pastry.Heartbeat{From: na.Ref()})
	b.Fail()
	sim.RunUntil(10 * time.Second)
	if nw.DropsByCause[DropDeadEndpoint] != 1 {
		t.Fatalf("dead-endpoint drops = %d, want 1", nw.DropsByCause[DropDeadEndpoint])
	}

	// Stale identity: reincarnated with a new node.
	makeNode(t, nw, b)
	a.Send(oldRef, &pastry.Heartbeat{From: na.Ref()})
	sim.RunUntil(20 * time.Second)
	if nw.DropsByCause[DropStaleIdentity] != 1 {
		t.Fatalf("stale-identity drops = %d, want 1", nw.DropsByCause[DropStaleIdentity])
	}

	// Churn artifacts must not count as injected drops.
	if nw.Drops() != 0 {
		t.Fatalf("injected Drops = %d, want 0 (only churn artifacts occurred)", nw.Drops())
	}
}

func TestUniformLossClassified(t *testing.T) {
	sim, nw := testNet(t, 0.5)
	a := nw.NewEndpoint(nw.topo.Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	nb := makeNode(t, nw, b)
	_ = sim
	for i := 0; i < 1000; i++ {
		a.Send(nb.Ref(), &pastry.Heartbeat{From: na.Ref()})
	}
	if nw.DropsByCause[DropLoss] != nw.Drops() {
		t.Fatalf("uniform loss drops %d != Drops %d", nw.DropsByCause[DropLoss], nw.Drops())
	}
}

// TestFaultDeterminism replays an identical fault scenario under the same
// seed and demands identical packet fates.
func TestFaultDeterminism(t *testing.T) {
	runOnce := func() ([NumDropCauses]uint64, FaultCounters, []uint64) {
		sim, nw, a, _, nb, log := rootWithLog(t)
		na := a.nw.eps[a.Addr()].node
		nw.Faults().At(0, 30*time.Second, Fault{Jitter: time.Second, Duplicate: 0.3,
			Reorder: 0.3, ReorderMax: 2 * time.Second, From: a.Addr(), To: nb.Ref().Addr, LinkLoss: 0.2})
		sim.RunUntil(0) // arm before the sends below
		for i := uint64(1); i <= 300; i++ {
			a.Send(nb.Ref(), lookupEnvelope(na, i))
		}
		sim.RunUntil(time.Minute)
		return nw.DropsByCause, nw.FaultCounts, log.seqs
	}
	d1, f1, s1 := runOnce()
	nodeSalt -= 2 // same node ids on the replay
	d2, f2, s2 := runOnce()
	if d1 != d2 || f1 != f2 {
		t.Fatalf("counters diverged under the same seed: %v/%v vs %v/%v", d1, f1, d2, f2)
	}
	if len(s1) != len(s2) {
		t.Fatalf("delivery counts diverged: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("delivery order diverged at %d: %d vs %d", i, s1[i], s2[i])
		}
	}
}

// TestCopyForDeliveryNoAliasing is the regression guard for the
// copy-on-deliver contract: mutating a delivered Join.Rows or Lookup must
// not reach the sender's retransmission copy.
func TestCopyForDeliveryNoAliasing(t *testing.T) {
	orig := &pastry.Envelope{
		Xfer: 1,
		From: pastry.NodeRef{ID: id.New(1, 1), Addr: "1"},
		Lookup: &pastry.Lookup{
			Key:  id.New(2, 2),
			Seq:  7,
			Hops: 3,
		},
		Join: &pastry.JoinRequest{
			Joiner: pastry.NodeRef{ID: id.New(3, 3), Addr: "3"},
			Rows: []pastry.NodeRef{
				{ID: id.New(4, 4), Addr: "4"},
				{ID: id.New(5, 5), Addr: "5"},
			},
			Hops: 2,
		},
	}
	delivered, ok := copyForDelivery(orig).(*pastry.Envelope)
	if !ok {
		t.Fatal("copyForDelivery changed the message type")
	}
	if delivered == orig || delivered.Lookup == orig.Lookup || delivered.Join == orig.Join {
		t.Fatal("copyForDelivery returned aliased envelope or payloads")
	}
	// Receiver-style mutations on the delivered copy.
	delivered.Lookup.Hops = 99
	delivered.Join.Hops = 99
	delivered.Join.Rows[0] = pastry.NodeRef{ID: id.New(9, 9), Addr: "9"}
	delivered.Join.Rows = append(delivered.Join.Rows, pastry.NodeRef{ID: id.New(8, 8), Addr: "8"})
	if orig.Lookup.Hops != 3 {
		t.Fatalf("sender's Lookup.Hops mutated to %d", orig.Lookup.Hops)
	}
	if orig.Join.Hops != 2 {
		t.Fatalf("sender's Join.Hops mutated to %d", orig.Join.Hops)
	}
	if got := orig.Join.Rows[0]; got.Addr != "4" {
		t.Fatalf("sender's Join.Rows[0] mutated to %v", got)
	}
	if len(orig.Join.Rows) != 2 {
		t.Fatalf("sender's Join.Rows length mutated to %d", len(orig.Join.Rows))
	}
	// Non-envelope messages pass through unchanged.
	hb := &pastry.Heartbeat{From: orig.From}
	if copyForDelivery(hb) != pastry.Message(hb) {
		t.Fatal("non-envelope message was copied")
	}
}
