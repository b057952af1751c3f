package netmodel

import (
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/id"
	"mspastry/internal/pastry"
	"mspastry/internal/topology"
	"mspastry/internal/wire"
)

func testNet(t *testing.T, loss float64) (*eventsim.Simulator, *Network) {
	t.Helper()
	sim := eventsim.New(1)
	topo := topology.CorpNet(topology.CorpNetConfig{Hubs: 4, EdgeRouters: 8}, rand.New(rand.NewSource(1)))
	return sim, New(sim, topo, loss)
}

var nodeSalt uint64

func makeNode(t *testing.T, nw *Network, ep *Endpoint) *pastry.Node {
	t.Helper()
	nodeSalt++
	cfg := pastry.DefaultConfig()
	ref := pastry.NodeRef{ID: id.New(uint64(ep.Index()+1), nodeSalt), Addr: ep.Addr()}
	n, err := pastry.NewNode(ref, cfg, ep, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep.Bind(n)
	return n
}

func TestDeliveryWithDelay(t *testing.T) {
	sim, nw := testNet(t, 0)
	a := nw.NewEndpoint(nw.Topology().Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	nb := makeNode(t, nw, b)
	na.Bootstrap()
	nb.Bootstrap()
	// Send a heartbeat from a to b and check it arrives after the
	// topology delay (b records the contact by replying nothing, so use
	// a dist probe which triggers a reply).
	a.Send(nb.Ref(), &pastry.DistProbe{From: na.Ref(), Seq: 7})
	delay := nw.Topology().Delay(a.Index(), b.Index())
	sim.RunUntil(delay - time.Nanosecond)
	// Reply cannot have been sent yet (message not yet delivered).
	sim.RunUntil(10 * time.Second)
	// After full run, the probe reply must have come back (check via the
	// estimator state indirectly: a's routing table gained b on contact).
	if !na.Table().Contains(nb.Ref().ID) {
		t.Fatal("probe reply never arrived")
	}
}

func TestLossDropsMessages(t *testing.T) {
	sim, nw := testNet(t, 0.5)
	a := nw.NewEndpoint(nw.Topology().Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	nb := makeNode(t, nw, b)
	_ = nb
	for i := 0; i < 1000; i++ {
		a.Send(nb.Ref(), &pastry.Heartbeat{From: na.Ref()})
	}
	if nw.Drops < 350 || nw.Drops > 650 {
		t.Fatalf("drops = %d, want ~500 of 1000", nw.Drops)
	}
}

func TestNoDeliveryToFailedEndpoint(t *testing.T) {
	sim, nw := testNet(t, 0)
	a := nw.NewEndpoint(nw.Topology().Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	nb := makeNode(t, nw, b)
	b.Fail()
	a.Send(nb.Ref(), &pastry.DistProbe{From: na.Ref(), Seq: 1})
	sim.RunUntil(10 * time.Second)
	if na.Table().Contains(nb.Ref().ID) {
		t.Fatal("failed endpoint replied")
	}
}

func TestNoDeliveryToReincarnatedIdentity(t *testing.T) {
	sim, nw := testNet(t, 0)
	a := nw.NewEndpoint(nw.Topology().Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	oldRef := makeNode(t, nw, b).Ref()
	// Reincarnate b with a new identity.
	b.Fail()
	nb2 := makeNode(t, nw, b)
	// A message addressed to the old identity must not reach the new one.
	a.Send(oldRef, &pastry.DistProbe{From: na.Ref(), Seq: 2})
	sim.RunUntil(10 * time.Second)
	if na.Table().Contains(oldRef.ID) || na.Table().Contains(nb2.Ref().ID) {
		t.Fatal("stale-identity message was delivered")
	}
}

func TestOnSendHookSeesEverything(t *testing.T) {
	sim, nw := testNet(t, 0.9)
	a := nw.NewEndpoint(nw.Topology().Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	nb := makeNode(t, nw, b)
	count := 0
	nw.OnSend(func(from *Endpoint, to pastry.NodeRef, m pastry.Message, singleBytes int) { count++ })
	for i := 0; i < 100; i++ {
		a.Send(nb.Ref(), &pastry.Heartbeat{From: na.Ref()})
	}
	if count != 100 {
		t.Fatalf("hook saw %d of 100 sends (must count before loss)", count)
	}
}

func TestEnvelopeCopiedOnDelivery(t *testing.T) {
	sim, nw := testNet(t, 0)
	a := nw.NewEndpoint(nw.Topology().Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	nb := makeNode(t, nw, b)
	nb.Bootstrap()
	lk := &pastry.Lookup{Key: id.New(9, 9), Seq: 1, Origin: na.Ref(), Hops: 0}
	env := &pastry.Envelope{Xfer: 1, From: na.Ref(), Lookup: lk}
	a.Send(nb.Ref(), env)
	sim.RunUntil(10 * time.Second)
	if lk.Hops != 0 {
		t.Fatal("receiver mutated the sender's buffered lookup (no copy on delivery)")
	}
}

func TestBadLossRatePanics(t *testing.T) {
	sim := eventsim.New(1)
	topo := topology.CorpNet(topology.CorpNetConfig{Hubs: 2, EdgeRouters: 2}, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for loss rate 1.0")
		}
	}()
	New(sim, topo, 1.0)
}

// The simulator must charge exactly the bytes the wire layer would put on
// a real socket — that equality is what makes simulated overhead numbers
// comparable to a live node's /metrics.
func TestChargedBytesMatchWireEncoder(t *testing.T) {
	// Without coalescing, every message is charged its single-frame
	// encoding, byte for byte.
	sim, nw := testNet(t, 0)
	a := nw.NewEndpoint(nw.Topology().Attach(2, sim.Rand()))
	b := nw.NewEndpoint(a.Index() + 1)
	na := makeNode(t, nw, a)
	nb := makeNode(t, nw, b)
	msgs := []pastry.Message{
		&pastry.Heartbeat{From: na.Ref(), TrtHint: 30 * time.Second},
		&pastry.Ack{Xfer: 3, From: na.Ref()},
		&pastry.LSProbe{From: na.Ref(), Leaves: []pastry.NodeRef{nb.Ref()}, NeedNear: true},
		&pastry.Envelope{Xfer: 1, From: na.Ref(), Lookup: &pastry.Lookup{Key: id.New(5, 5), Seq: 1, Origin: na.Ref()}},
	}
	var charged []int
	nw.OnFrame(func(from *Endpoint, f FrameInfo) {
		if from == a {
			charged = append(charged, f.Bytes)
		}
	})
	for _, m := range msgs {
		a.Send(nb.Ref(), m)
	}
	if len(charged) != len(msgs) {
		t.Fatalf("charged %d frames for %d sends", len(charged), len(msgs))
	}
	total := 0
	for i, m := range msgs {
		want := len(wire.EncodeSingle(m))
		if charged[i] != want {
			t.Errorf("message %d (%T): charged %d bytes, wire encoder produces %d", i, m, charged[i], want)
		}
		total += want
	}

	// With a window, the batch is charged exactly what an independent wire
	// coalescer assembles for the same message sequence.
	sim2, nw2 := testNet(t, 0)
	nw2.SetCoalesceWindow(5 * time.Millisecond)
	c := nw2.NewEndpoint(nw2.Topology().Attach(2, sim2.Rand()))
	d := nw2.NewEndpoint(c.Index() + 1)
	nc := makeNode(t, nw2, c)
	nd := makeNode(t, nw2, d)
	batch := []pastry.Message{
		&pastry.Heartbeat{From: nc.Ref(), TrtHint: 30 * time.Second},
		&pastry.Ack{Xfer: 9, From: nc.Ref()},
		&pastry.Heartbeat{From: nc.Ref(), TrtHint: time.Second},
	}
	var batchCharged []int
	nw2.OnFrame(func(from *Endpoint, f FrameInfo) {
		if from == c {
			batchCharged = append(batchCharged, f.Bytes)
		}
	})
	for _, m := range batch {
		c.Send(nd.Ref(), m)
	}
	sim2.RunUntil(6 * time.Millisecond) // past the window: one flush

	want := 0
	ref := wire.NewCoalescer(wire.Config{
		Window: 5 * time.Millisecond,
		Now:    func() time.Duration { return 0 },
		After:  func(time.Duration, func()) {},
		Emit:   func(f wire.Flush) { want += len(f.Frame) },
	})
	for _, m := range batch {
		ref.Send("peer", nd.Ref(), m)
	}
	ref.FlushAll()
	if len(batchCharged) != 1 || batchCharged[0] != want {
		t.Fatalf("batch charged %v, wire coalescer assembles %d bytes", batchCharged, want)
	}
	if got := int(nw2.FrameBytes); got != want {
		t.Fatalf("network charged %d total bytes, wire output is %d", got, want)
	}
}

// TestNewClusterActiveAndDeterministic builds the same seeded overlay
// twice: every node must come up active with its application hook run
// before it joined, and both builds must draw the same ids and send the
// same number of frames by the same virtual time.
func TestNewClusterActiveAndDeterministic(t *testing.T) {
	const n = 12
	cfg := pastry.DefaultConfig()
	cfg.L = 8
	build := func() (ids []id.ID, frames uint64, now time.Duration) {
		sim, nw := testNet(t, 0)
		hooked := 0
		c := nw.NewCluster(n, cfg, 2*time.Second, func(i int, node *pastry.Node, ep *Endpoint) {
			if node.Active() || ep.Node() != node || i != hooked {
				t.Fatalf("each(%d): active=%v bound=%v after %d calls", i, node.Active(), ep.Node() == node, hooked)
			}
			hooked++
		})
		sim.RunUntil(sim.Now() + time.Minute)
		if len(c.Nodes) != n || len(c.Eps) != n || hooked != n {
			t.Fatalf("cluster of %d nodes, %d endpoints, %d hook calls; want %d each", len(c.Nodes), len(c.Eps), hooked, n)
		}
		for i, node := range c.Nodes {
			if !node.Active() {
				t.Fatalf("node %d not active", i)
			}
			ids = append(ids, node.Ref().ID)
		}
		return ids, nw.Frames, sim.Now()
	}
	ids1, frames1, now1 := build()
	ids2, frames2, now2 := build()
	if frames1 != frames2 || now1 != now2 {
		t.Fatalf("same seed diverged: %d frames at %v vs %d frames at %v", frames1, now1, frames2, now2)
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("node %d drew id %v then %v", i, ids1[i], ids2[i])
		}
	}
}
