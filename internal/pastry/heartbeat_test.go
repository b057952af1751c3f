package pastry

import (
	"testing"
	"time"

	"mspastry/internal/id"
)

func TestHeartbeatGoesToLeftNeighbourOnly(t *testing.T) {
	net := newTestNet(t, 101)
	cfg := testConfig()
	nodes := buildOverlay(t, net, 6, cfg)
	// Count heartbeats per (sender, receiver) pair.
	type pair struct{ from, to id.ID }
	counts := map[pair]int{}
	net.drop = func(from, to NodeRef, m Message) bool {
		if _, ok := m.(*Heartbeat); ok {
			counts[pair{from.ID, to.ID}]++
		}
		return false
	}
	net.run(5 * time.Minute)
	// Every sender should heartbeat exactly one target: its left
	// neighbour.
	senders := map[id.ID]map[id.ID]bool{}
	for p := range counts {
		if senders[p.from] == nil {
			senders[p.from] = map[id.ID]bool{}
		}
		senders[p.from][p.to] = true
	}
	for _, n := range nodes {
		targets := senders[n.Ref().ID]
		if len(targets) != 1 {
			t.Fatalf("node %v heartbeats %d targets, want 1", n.Ref().ID, len(targets))
		}
		left, _ := n.Leaf().LeftNeighbour()
		if !targets[left.ID] {
			t.Fatalf("node %v heartbeats someone other than its left neighbour", n.Ref().ID)
		}
	}
}

func TestHeartbeatRateMatchesTls(t *testing.T) {
	net := newTestNet(t, 102)
	cfg := testConfig()
	nodes := buildOverlay(t, net, 6, cfg)
	before := net.sent[CatLeafSet]
	hbBefore := uint64(0)
	for _, n := range nodes {
		hbBefore += n.Stats().SentHeartbeats
	}
	const window = 10 * time.Minute
	net.run(window)
	hbAfter := uint64(0)
	for _, n := range nodes {
		hbAfter += n.Stats().SentHeartbeats
	}
	_ = before
	sent := hbAfter - hbBefore
	// 6 nodes x (10min / 30s) = 120 heartbeats, +/- tick granularity.
	want := uint64(len(nodes)) * uint64(window/cfg.Tls)
	if sent < want*7/10 || sent > want*13/10 {
		t.Fatalf("heartbeats = %d over %v, want ~%d", sent, window, want)
	}
}

func TestSuppressionSkipsHeartbeatUnderTraffic(t *testing.T) {
	net := newTestNet(t, 103)
	cfg := testConfig()
	nodes := buildOverlay(t, net, 6, cfg)
	// Constant lookup chatter between neighbours suppresses heartbeats.
	var stop bool
	var chatter func()
	chatter = func() {
		if stop {
			return
		}
		for _, n := range nodes {
			if left, ok := n.Leaf().LeftNeighbour(); ok {
				// Any direct message counts; send a dist probe.
				n.measureDistance(left, 1, nil)
			}
		}
		net.sim.After(5*time.Second, chatter)
	}
	net.sim.After(0, chatter)
	hbBefore := uint64(0)
	supBefore := uint64(0)
	for _, n := range nodes {
		hbBefore += n.Stats().SentHeartbeats
		supBefore += n.Stats().SuppressedProbes
	}
	net.run(10 * time.Minute)
	stop = true
	hbAfter, supAfter := uint64(0), uint64(0)
	for _, n := range nodes {
		hbAfter += n.Stats().SentHeartbeats
		supAfter += n.Stats().SuppressedProbes
	}
	if supAfter == supBefore {
		t.Fatal("no suppression recorded despite constant traffic")
	}
	sent := hbAfter - hbBefore
	want := uint64(6) * uint64(10*time.Minute/cfg.Tls)
	if sent > want/2 {
		t.Fatalf("heartbeats barely suppressed: %d of ~%d", sent, want)
	}
}

func TestFailureDetectionLatencyWithinBound(t *testing.T) {
	// The paper's formula assumes a leaf failure is detected within
	// Tls + (retries+1)*To by the left neighbour. Measure it.
	net := newTestNet(t, 104)
	cfg := testConfig()
	nodes := buildOverlay(t, net, 8, cfg)
	net.run(time.Minute)
	victim := nodes[3]
	// Find the detector: the node whose right neighbour is the victim.
	var detector *Node
	for _, n := range nodes {
		if r, ok := n.Leaf().RightNeighbour(); ok && r.ID == victim.Ref().ID {
			detector = n
			break
		}
	}
	if detector == nil {
		t.Fatal("no detector found")
	}
	victim.Fail()
	failedAt := net.sim.Now()
	// Poll until the detector drops the victim.
	bound := cfg.Tls + time.Duration(maxProbeRetries+1)*cfg.To + 2*cfg.TickInterval
	for net.sim.Now() < failedAt+2*bound {
		net.run(time.Second)
		if !detector.Leaf().Contains(victim.Ref().ID) {
			detected := net.sim.Now() - failedAt
			t.Logf("detected in %v (bound %v)", detected, bound)
			if detected > bound {
				t.Fatalf("detection took %v, bound is %v", detected, bound)
			}
			return
		}
	}
	t.Fatal("failure never detected")
}

func TestAllPairsHeartbeatsCostScalesWithL(t *testing.T) {
	// The ablation baseline: all-pairs heartbeat cost grows with l while
	// structured cost does not (the justification for Figure 7-left).
	run := func(structured bool, l int) uint64 {
		net := newTestNet(t, 105)
		cfg := testConfig()
		cfg.L = l
		cfg.StructuredHeartbeats = structured
		nodes := buildOverlay(t, net, 20, cfg)
		before := uint64(0)
		for _, n := range nodes {
			before += n.Stats().SentHeartbeats
		}
		net.run(10 * time.Minute)
		after := uint64(0)
		for _, n := range nodes {
			after += n.Stats().SentHeartbeats
		}
		return after - before
	}
	structSmall, structBig := run(true, 4), run(true, 16)
	apSmall, apBig := run(false, 4), run(false, 16)
	t.Logf("structured: l=4 %d, l=16 %d; all-pairs: l=4 %d, l=16 %d",
		structSmall, structBig, apSmall, apBig)
	// Structured: ~constant in l. All-pairs: grows.
	if structBig > structSmall*3/2 {
		t.Fatalf("structured heartbeats grew with l: %d -> %d", structSmall, structBig)
	}
	if apBig < apSmall*2 {
		t.Fatalf("all-pairs heartbeats did not grow with l: %d -> %d", apSmall, apBig)
	}
}
