package pastry

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"mspastry/internal/id"
)

// clusteredDelay places nodes in numbered "sites": same-site pairs are
// 2 ms apart, cross-site pairs 100 ms. Site is derived from the node's
// address ordinal so tests can control placement.
func clusteredDelay(sites int) func(from, to NodeRef) time.Duration {
	site := func(r NodeRef) int {
		v, err := strconv.Atoi(r.Addr[1:]) // addresses are "t<N>"
		if err != nil {
			return 0
		}
		return v % sites
	}
	return func(from, to NodeRef) time.Duration {
		if site(from) == site(to) {
			return 2 * time.Millisecond
		}
		return 100 * time.Millisecond
	}
}

// buildPNSOverlay creates an overlay on a clustered delay space with PNS
// on or off, returning the nodes.
func buildPNSOverlay(t *testing.T, seed int64, n int, pns bool) (*testNet, []*Node) {
	t.Helper()
	net := newTestNet(t, seed)
	net.delayFn = clusteredDelay(4)
	cfg := testConfig()
	cfg.PNS = pns
	cfg.L = 8
	// b=2 gives 4 columns per row, so each slot has several candidates —
	// the regime where proximity selection actually has choices to make.
	cfg.B = 2
	rng := rand.New(rand.NewSource(seed))
	var nodes []*Node
	first := net.addNode(id.Random(rng), cfg, nil)
	first.Bootstrap()
	nodes = append(nodes, first)
	for i := 1; i < n; i++ {
		node := net.addNode(id.Random(rng), cfg, nil)
		node.Join(nodes[net.sim.Rand().Intn(len(nodes))].Ref())
		nodes = append(nodes, node)
		net.run(15 * time.Second)
	}
	net.run(2 * time.Minute)
	for i, node := range nodes {
		if !node.Active() {
			t.Fatalf("node %d never activated (pns=%v)", i, pns)
		}
	}
	return net, nodes
}

// meanMeasuredRTT averages the measured routing-table entry distances
// across nodes (entries without a measurement are skipped).
func meanMeasuredRTT(nodes []*Node) (time.Duration, int) {
	var sum time.Duration
	count := 0
	for _, n := range nodes {
		for _, e := range n.Table().Entries() {
			if rtt, ok := n.Table().RTT(e.ID); ok {
				sum += rtt
				count++
			}
		}
	}
	if count == 0 {
		return 0, 0
	}
	return sum / time.Duration(count), count
}

func TestPNSPrefersNearbyEntries(t *testing.T) {
	// Compare the achieved routing-table proximity against the best and
	// the average candidate per slot: PNS must capture a substantial part
	// of the available improvement (random selection captures none in
	// expectation).
	net, nodes := buildPNSOverlay(t, 61, 24, true)
	// Let maintenance run a couple of cycles (20-minute period).
	net.run(45 * time.Minute)
	delay := net.delayFn
	var achieved, optimal, random float64
	entries := 0
	for _, n := range nodes {
		for _, e := range n.Table().Entries() {
			row, col, _ := n.Table().Slot(e.ID)
			var best, sum time.Duration
			cands := 0
			for _, other := range nodes {
				if other == n {
					continue
				}
				r2, c2, ok := n.Table().Slot(other.Ref().ID)
				if !ok || r2 != row || c2 != col {
					continue
				}
				d := 2 * delay(n.Ref(), other.Ref())
				sum += d
				if cands == 0 || d < best {
					best = d
				}
				cands++
			}
			if cands < 2 {
				continue // no choice to make in this slot
			}
			achieved += float64(2 * delay(n.Ref(), e))
			optimal += float64(best)
			random += float64(sum) / float64(cands)
			entries++
		}
	}
	if entries == 0 {
		t.Fatal("no multi-candidate slots — test setup too small")
	}
	t.Logf("per-slot RTT over %d entries: achieved=%.1fms optimal=%.1fms random=%.1fms",
		entries, achieved/float64(entries)/1e6, optimal/float64(entries)/1e6, random/float64(entries)/1e6)
	if random <= optimal {
		t.Skip("no improvement available")
	}
	captured := (random - achieved) / (random - optimal)
	t.Logf("PNS captured %.0f%% of the available proximity improvement", captured*100)
	if captured < 0.4 {
		t.Fatalf("PNS captured only %.0f%% of the available improvement", captured*100)
	}
}

func TestSymmetricProbesShareMeasurement(t *testing.T) {
	// When a measures the round-trip delay to b, the symmetric report must
	// give b a measured entry for a without b probing at all.
	net := newTestNet(t, 62)
	cfg := testConfig()
	cfg.PNS = true
	a := net.addNode(id.New(0x1111000000000000, 1), cfg, nil)
	b := net.addNode(id.New(0x9999000000000000, 1), cfg, nil)
	a.Bootstrap()
	b.Bootstrap()
	a.measureDistance(b.Ref(), 3, nil)
	net.run(30 * time.Second)
	rtt, ok := b.Table().RTT(a.Ref().ID)
	if !ok {
		t.Fatal("symmetric report did not populate the peer's table")
	}
	if rtt != 2*net.delay {
		t.Fatalf("reported RTT %v, want %v", rtt, 2*net.delay)
	}
}

func TestDistanceSessionMedian(t *testing.T) {
	// Distance sessions send distProbeCount probes and use the median:
	// the probes take 10, 50 and 20 ms out, every echo (and the report)
	// 5 ms. Neither node is active, so no leaf-set probe joins the
	// traffic.
	net := newTestNet(t, 63)
	cfg := testConfig()
	cfg.DistProbeSpacing = 100 * time.Millisecond
	a := net.addNode(id.New(1, 1), cfg, nil)
	b := net.addNode(id.New(1<<60, 2), cfg, nil)
	out := []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 20 * time.Millisecond}
	net.delayFn = func(from, _ NodeRef) time.Duration {
		if from != a.Ref() || len(out) == 0 {
			return 5 * time.Millisecond
		}
		d := out[0]
		out = out[1:]
		return d
	}
	a.measureDistance(b.Ref(), distProbeCount, nil)
	net.run(10 * time.Second)
	if got, ok := a.Table().RTT(b.Ref().ID); !ok || got != 25*time.Millisecond {
		t.Fatalf("measured RTT %v (measured: %v), want the median 25ms", got, ok)
	}
	if len(out) != 0 {
		t.Fatalf("%d probes were not sent", len(out))
	}
}

func TestDistanceSessionFailsForDeadTarget(t *testing.T) {
	net := newTestNet(t, 64)
	cfg := testConfig()
	a := net.addNode(id.New(1, 1), cfg, nil)
	dead := net.addNode(id.New(2, 2), cfg, nil)
	a.Bootstrap()
	dead.Fail()
	state := &nnState{pendingN: 2}
	a.nn = state
	a.measureDistance(dead.Ref(), 3, nil)
	a.measureDistance(dead.Ref(), 3, state)
	net.run(time.Minute)
	if state.pendingN != 1 {
		t.Fatal("session never concluded")
	}
	if state.haveCand {
		t.Fatal("session to a dead node reported success")
	}
	if _, measured := a.Table().RTT(dead.Ref().ID); measured {
		t.Fatal("session to a dead node offered it to the routing table")
	}
	if len(a.distSessions) != 0 || len(a.distSeqs) != 0 || len(a.freeDists) != 1 {
		t.Fatalf("%d sessions, %d probes outstanding, %d records parked; want 0, 0 and 1",
			len(a.distSessions), len(a.distSeqs), len(a.freeDists))
	}
	checkRecords(t, a)
}

func TestDistanceSessionCoalesces(t *testing.T) {
	net := newTestNet(t, 65)
	cfg := testConfig()
	a := net.addNode(id.New(1, 1), cfg, nil)
	b := net.addNode(id.New(2, 2), cfg, nil)
	a.Bootstrap()
	b.Bootstrap()
	// Five callers, of both kinds: three samples of one search round that
	// waits for four, and two offers to the routing table.
	state := &nnState{pendingN: 4}
	a.nn = state
	probesBefore := net.sent[CatDistance]
	for i := 0; i < 5; i++ {
		if i%2 == 0 {
			a.measureDistance(b.Ref(), 3, state)
		} else {
			a.measureDistance(b.Ref(), 3, nil)
		}
	}
	if ds := a.distSessions[b.Ref().ID]; ds == nil || len(ds.waiters) != 5 {
		t.Fatal("the five callers do not wait on one session")
	}
	net.run(10 * time.Second)
	if state.pendingN != 1 || state.bestCand != b.Ref() || state.bestD != 2*net.delay {
		t.Fatalf("the search got %d of its 3 samples, best %v at %v", 4-state.pendingN, state.bestCand, state.bestD)
	}
	if rtt, ok := a.Table().RTT(b.Ref().ID); !ok || rtt != 2*net.delay {
		t.Fatalf("the routing table has %v (measured: %v), want %v", rtt, ok, 2*net.delay)
	}
	// One session: 3 probes + 3 replies + 1 symmetric report.
	if probes := net.sent[CatDistance] - probesBefore; probes != 7 {
		t.Fatalf("concurrent requests were not coalesced: %d distance messages", probes)
	}
	checkRecords(t, a)
}

// emptySlotRoute builds the state passive repair works on in an overlay:
// src's table loses x, a node outside src's leaf-set range, so a lookup for
// x crosses an empty slot; and the next hop src picks for that lookup holds
// a node for the slot (x itself, or the node already in x's slot there,
// which shares more of x's prefix than src does).
func emptySlotRoute(t *testing.T, nodes []*Node) (src, x *Node) {
	t.Helper()
	for _, src := range nodes {
		for _, x := range nodes {
			if x == src || !src.rt.Contains(x.Ref().ID) || src.ls.InRange(x.Ref().ID) {
				continue
			}
			src.rt.Remove(x.Ref().ID)
			next, v, empty := src.nextHop(x.Ref().ID, nil)
			if v != forward || !empty {
				t.Fatalf("a lookup for a removed entry outside the leaf range: verdict %v, empty slot %v", v, empty)
			}
			for _, n := range nodes {
				if n.Ref() == next {
					n.rt.Add(x.Ref())
				}
			}
			return src, x
		}
	}
	t.Fatal("no node holds a table entry outside its leaf-set range")
	return nil, nil
}

func TestPassiveRepairFillsSlot(t *testing.T) {
	// A node routes through an empty slot; the next hop answers the
	// repair request and the slot gets filled (after a distance probe).
	net := newTestNet(t, 66)
	cfg := testConfig()
	cfg.PNS = true
	src, x := emptySlotRoute(t, buildOverlayObs(t, net, 14, cfg, nil))
	row, col, _ := src.rt.Slot(x.Ref().ID)
	before := src.counters.SentRepairRequests
	src.Lookup(x.Ref().ID, nil)
	net.run(30 * time.Second)
	if got := src.counters.SentRepairRequests - before; got != 1 {
		t.Fatalf("the lookup sent %d repair requests, want 1", got)
	}
	if _, used := src.rt.Get(row, col); !used {
		t.Fatal("passive repair left the slot empty")
	}
}

// TestPassiveRepairAsksOncePerSlot: lookups through a slot that stays
// empty ask about it once per Trt; a slot emptied by Remove is asked about
// at once.
func TestPassiveRepairAsksOncePerSlot(t *testing.T) {
	net := newTestNet(t, 69)
	src, x := emptySlotRoute(t, buildOverlay(t, net, 14, testConfig()))
	key := x.Ref().ID
	row, col, _ := src.rt.Slot(key)
	// Nothing src could fill the slot with reaches it: no repair or row
	// reply, and no message from a node that belongs in the slot.
	net.drop = func(from, to NodeRef, m Message) bool {
		if to != src.Ref() {
			return false
		}
		switch m.(type) {
		case *RepairReply, *RowReply:
			return true
		}
		r, c, _ := src.rt.Slot(from.ID)
		return r == row && c == col
	}
	asked := func(lookups int) uint64 {
		for range lookups {
			src.Lookup(key, nil)
			net.run(time.Second)
		}
		return src.counters.SentRepairRequests
	}
	base := src.counters.SentRepairRequests
	if got := asked(2) - base; got != 1 {
		t.Fatalf("two lookups within Trt sent %d repair requests, want 1", got)
	}
	net.run(src.Trt())
	if got := asked(1) - base; got != 2 {
		t.Fatalf("a lookup after Trt: %d repair requests in all, want 2", got)
	}
	src.rt.Add(x.Ref())
	src.rt.Remove(key)
	if got := asked(1) - base; got != 3 {
		t.Fatalf("a lookup after Remove: %d repair requests in all, want 3", got)
	}
}

func TestPeriodicMaintenanceRequestsRows(t *testing.T) {
	net := newTestNet(t, 68)
	cfg := testConfig()
	cfg.PNS = true
	cfg.RTMaintenance = 2 * time.Minute
	buildOverlayObs(t, net, 10, cfg, nil)
	before := net.sent[CatRTProbe]
	net.run(5 * time.Minute)
	// RowRequest/RowReply are accounted as CatRTProbe; at least one
	// maintenance round must have fired.
	if net.sent[CatRTProbe] == before {
		t.Fatal("no routing-table maintenance traffic observed")
	}
}
