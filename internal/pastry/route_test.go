package pastry

import (
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/peer"
)

// routeTestNode builds a standalone node with hand-crafted routing state.
func routeTestNode(t *testing.T, self id.ID, leaves, table []NodeRef) *Node {
	t.Helper()
	net := newTestNet(t, 1)
	n := net.addNode(self, testConfig(), nil)
	n.active = true
	for _, l := range leaves {
		n.ls.Add(l)
	}
	for _, e := range table {
		n.rt.Add(e)
	}
	return n
}

func TestNextHopDeliversInLeafRange(t *testing.T) {
	self := id.New(0, 1000)
	n := routeTestNode(t, self,
		[]NodeRef{ref(900), ref(950), ref(1050), ref(1100)}, nil)
	// Key closest to self within leaf range: delivered here.
	if _, v, _ := n.nextHop(id.New(0, 1010), nil); v != deliver {
		t.Fatalf("key closest to self: verdict %v, want deliver", v)
	}
	// Key closest to 1050: forwarded there.
	next, v, _ := n.nextHop(id.New(0, 1049), nil)
	if v != forward || next.ID.Lo != 1050 {
		t.Fatalf("next = %v (verdict %v), want 1050", next.ID, v)
	}
}

// fullLeafSet returns l members tightly clustered around self so the leaf
// set has full sides and does not wrap (its range stays tiny).
func fullLeafSet(self id.ID, l int) []NodeRef {
	var out []NodeRef
	for i := uint64(1); i <= uint64(l/2); i++ {
		out = append(out, refID(self.Add(id.New(0, i))))
		out = append(out, refID(self.Sub(id.New(0, i))))
	}
	return out
}

func TestNextHopUsesRoutingTableOutsideRange(t *testing.T) {
	self := id.New(0, 1<<32) // all leading digits zero
	hop := refID(id.New(0x7000000000000000, 1))
	n := routeTestNode(t, self, fullLeafSet(self, 8), []NodeRef{hop})
	key := id.New(0x7abc000000000000, 5)
	next, v, emptySlot := n.nextHop(key, nil)
	if v != forward || next.ID != hop.ID {
		t.Fatalf("next = %v, want routing-table entry", next)
	}
	if emptySlot {
		t.Fatal("slot was not empty")
	}
}

func TestNextHopFallsBackOnEmptySlot(t *testing.T) {
	self := id.New(0, 1<<32)
	// The key's slot (row 0, column 7) is empty, but a node with first
	// digit 6 is strictly closer to the key than self and shares the
	// (empty) prefix of length 0 — Pastry's routing-around rule must pick
	// it and flag the empty slot for passive repair.
	fallback := refID(id.New(0x6000000000000000, 9))
	n := routeTestNode(t, self, fullLeafSet(self, 8), []NodeRef{fallback})
	key := id.New(0x7abc000000000000, 5)
	next, v, emptySlot := n.nextHop(key, nil)
	if v != forward || next.ID != fallback.ID {
		t.Fatalf("next = %v, want fallback %v", next.ID, fallback.ID)
	}
	if !emptySlot {
		t.Fatal("empty-slot flag not raised (passive repair would not trigger)")
	}
}

// A node that has tried every candidate closer to the key is not the key's
// root: the closest of them, not marked failed, is.
func TestNextHopExcludedEverywhereHolds(t *testing.T) {
	self := id.New(0, 1000)
	other := ref(1100)
	n := routeTestNode(t, self, []NodeRef{other}, nil)
	var tried triedSet
	tried.add(other.ID)
	if _, v, _ := n.nextHop(id.New(0, 1099), &tried); v != hold {
		t.Fatalf("every closer candidate tried: verdict %v, want hold", v)
	}
	n.setFailed(other)
	if _, v, _ := n.nextHop(id.New(0, 1099), &tried); v != deliver {
		t.Fatalf("the closer candidate marked failed: verdict %v, want deliver", v)
	}
}

// outOfRangeSuspect gives a node with a tight leaf set a key outside the
// leaf range whose only closer candidate is an excluded routing-table
// entry: the leaf members on the key's side are marked failed.
func outOfRangeSuspect(t *testing.T) (*Node, id.ID) {
	self := id.New(0, 1<<32)
	hop := refID(id.New(0x7000000000000000, 1))
	leaves := fullLeafSet(self, 8)
	n := routeTestNode(t, self, leaves, []NodeRef{hop})
	key := id.New(0x7abc000000000000, 5)
	n.excluded[hop.ID] = true
	for _, m := range leaves {
		if id.CloserToKey(key, m.ID, self) {
			n.setFailed(m)
		}
	}
	if n.ls.InRange(key) {
		t.Fatal("the key is in the leaf range")
	}
	return n, key
}

// Outside the leaf range some other node is always closer to the key, so a
// node that finds no candidate there holds the lookup; it is not the root.
func TestNextHopOutsideLeafRangeHolds(t *testing.T) {
	n, key := outOfRangeSuspect(t)
	rec := newRecorder()
	n.obs = rec
	if _, v, _ := n.nextHop(key, nil); v != hold {
		t.Fatalf("verdict %v, want hold", v)
	}
	n.routeLookup(&Lookup{Key: key, Seq: 7, Origin: n.self}, n.Now())
	if _, delivered := rec.delivered[7]; delivered || len(n.holdBuffer) != 1 {
		t.Fatalf("delivered=%v, %d held: want the lookup held", delivered, len(n.holdBuffer))
	}
}

func TestNextHopStrictlyApproachesKey(t *testing.T) {
	// Property: for any key, the chosen next hop (when not self) is
	// strictly closer to the key than the local node, OR shares at least
	// as long a prefix — the invariant that makes routing loop-free.
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 300; trial++ {
		self := id.Random(rng)
		var leaves, table []NodeRef
		for i := 0; i < 8; i++ {
			leaves = append(leaves, refID(id.Random(rng)))
		}
		for i := 0; i < 30; i++ {
			table = append(table, refID(id.Random(rng)))
		}
		n := routeTestNode(t, self, leaves, table)
		key := id.Random(rng)
		next, v, _ := n.nextHop(key, nil)
		if v != forward {
			continue
		}
		selfPrefix := id.CommonPrefixLen(key, self, 4)
		nextPrefix := id.CommonPrefixLen(key, next.ID, 4)
		closer := id.CloserToKey(key, next.ID, self)
		if nextPrefix < selfPrefix && !closer {
			t.Fatalf("hop regressed: key=%v self=%v next=%v (prefix %d->%d, closer=%v)",
				key, self, next.ID, selfPrefix, nextPrefix, closer)
		}
		if nextPrefix == selfPrefix && !closer {
			t.Fatalf("same-prefix hop not closer: key=%v self=%v next=%v", key, self, next.ID)
		}
	}
}

func TestRoutingTerminatesFromEveryNode(t *testing.T) {
	// Build a consistent overlay, then simulate routing *statically* from
	// every node for random keys using each node's actual state: the walk
	// must terminate within the hop bound and end at the true root.
	net := newTestNet(t, 45)
	nodes := buildOverlay(t, net, 30, testConfig())
	byID := make(map[id.ID]*Node, len(nodes))
	for _, n := range nodes {
		byID[n.Ref().ID] = n
	}
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 200; trial++ {
		key := id.Random(rng)
		cur := nodes[rng.Intn(len(nodes))]
		hops := 0
		for {
			next, v, _ := cur.nextHop(key, nil)
			if v == deliver {
				break
			}
			if v == hold {
				t.Fatalf("a consistent overlay held key %v at %v", key, cur.Ref().ID)
			}
			hops++
			if hops > 20 {
				t.Fatalf("routing did not terminate for key %v", key)
			}
			nxt, ok := byID[next.ID]
			if !ok {
				t.Fatalf("route left the overlay: %v", next.ID)
			}
			cur = nxt
		}
		want := trueRoot(nodes, key)
		if cur.Ref().ID != want.Ref().ID {
			t.Fatalf("static route ended at %v, want %v", cur.Ref().ID, want.Ref().ID)
		}
	}
}

func TestAckCompletesPendingHop(t *testing.T) {
	net := newTestNet(t, 47)
	nodes := buildOverlay(t, net, 8, testConfig())
	src := nodes[0]
	pendingBefore := len(src.pending)
	// Issue a lookup that must leave the node.
	var key id.ID
	rng := rand.New(rand.NewSource(48))
	for {
		key = id.Random(rng)
		if trueRoot(nodes, key) != src {
			break
		}
	}
	src.Lookup(key, nil)
	net.run(50 * time.Millisecond) // lookup scheduled + sent, ack not yet back
	if len(src.pending) == pendingBefore {
		t.Skip("lookup resolved locally")
	}
	net.run(10 * time.Second)
	if len(src.pending) != pendingBefore {
		t.Fatalf("pending hops not cleaned up: %d", len(src.pending))
	}
}

func TestRTOEstimatorConverges(t *testing.T) {
	var est peer.RTT
	for i := 0; i < 50; i++ {
		est.Observe(20 * time.Millisecond)
	}
	rto := est.RTO(time.Second)
	// Stable samples: rto -> srtt + 2*rttvar, with rttvar decaying to 0.
	if rto < 20*time.Millisecond || rto > 40*time.Millisecond {
		t.Fatalf("converged RTO = %v, want ~20-40ms", rto)
	}
	// A spike raises the variance term.
	est.Observe(200 * time.Millisecond)
	spiked := est.RTO(time.Second)
	if spiked <= rto {
		t.Fatal("RTO did not react to a latency spike")
	}
}

// TestRTOClamped: the node clamps the estimator's timeout, or the
// fallback before any sample, to [MinRTO, MaxRTO].
func TestRTOClamped(t *testing.T) {
	n := newTestNode(t, id.New(1<<60, 0))
	n.cfg.MinRTO, n.cfg.MaxRTO = 50*time.Millisecond, 300*time.Millisecond
	ref := NodeRef{ID: id.New(5<<40, 5), Addr: "p"}
	if got := n.rtoFor(ref); got != 300*time.Millisecond { // 500 ms fallback
		t.Fatalf("fallback not clamped: %v", got)
	}
	n.rttOf(n.peers.Obtain(ref.ID, ref.Addr, time.Second)).Observe(time.Nanosecond)
	if got := n.rtoFor(ref); got != 50*time.Millisecond {
		t.Fatalf("min clamp failed: %v", got)
	}
}

func TestMedianDuration(t *testing.T) {
	if got := medianDuration(nil); got != 0 {
		t.Fatalf("empty median = %v", got)
	}
	if got := medianDuration([]time.Duration{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := medianDuration([]time.Duration{4, 1, 3, 2}); got != 2 { // (2+3)/2 = 2 (integer div)
		t.Fatalf("even median = %v", got)
	}
}

func TestHoldOnSuspectBlocksDelivery(t *testing.T) {
	net := newTestNet(t, 49)
	rec := newRecorder()
	cfg := testConfig()
	nodes := buildOverlayObs(t, net, 10, cfg, rec)
	// Pick a node and a key whose root is its direct neighbour; exclude
	// the root manually and check the node holds rather than delivers.
	n := nodes[0]
	right, ok := n.Leaf().RightNeighbour()
	if !ok {
		t.Fatal("no right neighbour")
	}
	key := right.ID // the neighbour is the root of its own id
	n.excluded[right.ID] = true
	lk := &Lookup{Key: key, Seq: 999, Origin: n.Ref(), Issued: net.sim.Now()}
	n.routeLookup(lk, n.Now())
	if _, delivered := rec.delivered[uint64(999)]; delivered {
		t.Fatal("delivered while a closer node was merely suspected")
	}
	if len(n.holdBuffer) == 0 {
		t.Fatal("lookup was not held")
	}
	// Clearing the suspicion and releasing must route it to the root.
	delete(n.excluded, right.ID)
	n.releaseHeld()
	net.run(5 * time.Second)
	if got := rec.delivered[uint64(999)]; got.ID != right.ID {
		t.Fatalf("released lookup delivered at %v, want %v", got.ID, right.ID)
	}
}

func TestHoldOnSuspectDisabledDeliversImmediately(t *testing.T) {
	net := newTestNet(t, 50)
	rec := newRecorder()
	cfg := testConfig()
	cfg.HoldOnSuspect = false
	nodes := buildOverlayObs(t, net, 10, cfg, rec)
	n := nodes[0]
	right, ok := n.Leaf().RightNeighbour()
	if !ok {
		t.Fatal("no right neighbour")
	}
	n.excluded[right.ID] = true
	lk := &Lookup{Key: right.ID, Seq: 998, Origin: n.Ref(), Issued: net.sim.Now()}
	n.routeLookup(lk, n.Now())
	if got, delivered := rec.delivered[uint64(998)]; !delivered || got.ID != n.Ref().ID {
		t.Fatal("with the rule disabled the node should deliver locally (the ablation behaviour)")
	}
	// Outside the leaf range too: the excluded routing-table entry does not
	// hold the lookup.
	m, key := outOfRangeSuspect(t)
	m.cfg.HoldOnSuspect = false
	m.obs = rec
	m.routeLookup(&Lookup{Key: key, Seq: 997, Origin: m.self}, m.Now())
	if got, delivered := rec.delivered[997]; !delivered || got.ID != m.self.ID {
		t.Fatal("with the rule disabled an out-of-range key with an excluded candidate should deliver locally")
	}
}

// A hold behind an open breaker is lifted by the breaker's cooldown, which
// no event marks: no probe completes, and the next tick re-routes the
// lookup to its root.
func TestHeldLookupRedrivenAtTick(t *testing.T) {
	net, n, sent := hopNode(t, testConfig(), nil)
	n.breakerOf(ref(1100)).Trip(n.Now())
	n.Lookup(keyAt1100, nil)
	net.run(0)
	if len(n.holdBuffer) != 1 || len(*sent) != 0 {
		t.Fatalf("%d held, %d sent: want the lookup held behind the open breaker", len(n.holdBuffer), len(*sent))
	}
	net.run(2 * n.cfg.breakerCooldown)
	if len(n.holdBuffer) != 1 || len(*sent) != 0 {
		t.Fatal("the hold was lifted before a tick")
	}
	n.onTick()
	if _, env := lastHop(t, n, *sent); env.Lookup == nil || env.Lookup.Key != keyAt1100 || len(n.holdBuffer) != 0 {
		t.Fatalf("the tick did not re-route the held lookup to its root: %d held", len(n.holdBuffer))
	}
}

// A hold nothing lifts ends in a reported drop, MinTrt after the first
// hold at this node: re-holding at a tick does not restart the clock.
func TestHeldLookupDroppedAfterBound(t *testing.T) {
	rec := newRecorder()
	net, n, _ := hopNode(t, testConfig(), rec)
	n.excluded[ref(1100).ID] = true
	seq, _ := n.Lookup(keyAt1100, nil)
	net.run(n.cfg.MinTrt() - time.Millisecond)
	n.onTick()
	if _, dropped := rec.dropped[seq]; dropped || len(n.holdBuffer) != 1 {
		t.Fatalf("dropped before the bound: %d held", len(n.holdBuffer))
	}
	net.run(time.Millisecond)
	n.onTick()
	if reason, dropped := rec.dropped[seq]; !dropped || reason != DropHeld || len(n.holdBuffer) != 0 {
		t.Fatalf("at the bound: dropped=%v (%v), %d held; want dropped held", dropped, reason, len(n.holdBuffer))
	}
}

// A crashed node reports the lookups only it had — held, or issued and not
// yet routed — but not one on a pending hop, whose copy may still arrive.
func TestFailReportsLookupsInCustody(t *testing.T) {
	rec := newRecorder()
	net, n, _ := hopNode(t, testConfig(), rec)
	n.excluded[ref(1100).ID] = true
	held, _ := n.Lookup(keyAt1100, nil)
	onHop, _ := n.Lookup(keyAt900, nil)
	net.run(0)
	queued, _ := n.Lookup(keyAt900, nil)
	n.Fail()
	n.Fail()
	net.run(time.Second)
	if len(rec.dropped) != 2 || rec.dropped[held] != DropBuffer || rec.dropped[queued] != DropBuffer {
		t.Fatalf("drops %v, want %d and %d dropped in the buffer", rec.dropped, held, queued)
	}
	if _, dropped := rec.dropped[onHop]; dropped {
		t.Fatal("the lookup on a pending hop was reported dropped")
	}
}
