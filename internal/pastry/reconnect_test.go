package pastry

import (
	"sort"
	"testing"
	"time"

	"mspastry/internal/id"
)

// graveFor returns the peer's reconnect record, nil when none.
func (n *Node) graveFor(x id.ID) *graveRecord {
	rec := n.peers.Lookup(x)
	if rec == nil {
		return nil
	}
	g, _ := rec.Get(n.slotGrave).(*graveRecord)
	return g
}

// ringRepaired reports whether the live nodes form one consistent ring:
// every node active, leaf sets complete, and both ring neighbours
// matching the global sorted order.
func ringRepaired(nodes []*Node) bool {
	live := make([]*Node, 0, len(nodes))
	for _, n := range nodes {
		if n.Alive() {
			live = append(live, n)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		return live[i].Ref().ID.Cmp(live[j].Ref().ID) < 0
	})
	k := len(live)
	for i, n := range live {
		if !n.Active() || !n.Leaf().Complete() {
			return false
		}
		right, okR := n.Leaf().RightNeighbour()
		left, okL := n.Leaf().LeftNeighbour()
		if !okR || !okL ||
			right.ID != live[(i+1)%k].Ref().ID ||
			left.ID != live[(i-1+k)%k].Ref().ID {
			return false
		}
	}
	return true
}

// TestPartitionRemerge drops every cross-side message long enough for
// both halves to purge each other completely, then heals the network and
// checks that the reconnect cache re-merges the overlay into one ring.
func TestPartitionRemerge(t *testing.T) {
	net := newTestNet(t, 7)
	nodes := buildOverlay(t, net, 16, testConfig())

	sideA := make(map[string]bool)
	for i, n := range nodes {
		if i < len(nodes)/2 {
			sideA[n.Ref().Addr] = true
		}
	}
	net.drop = func(from, to NodeRef, _ Message) bool {
		return sideA[from.Addr] != sideA[to.Addr]
	}
	// Far beyond the purge horizon (a few probe timeouts plus heartbeat
	// rounds): by now each side has marked every cross-side peer faulty
	// and removed it from all routing state.
	net.run(5 * time.Minute)
	if ringRepaired(nodes) {
		t.Fatalf("overlay still consistent mid-partition")
	}
	crossLinks := 0
	for _, n := range nodes {
		for _, m := range n.Leaf().Members() {
			if sideA[n.Ref().Addr] != sideA[m.Addr] {
				crossLinks++
			}
		}
	}
	if crossLinks > 0 {
		t.Fatalf("%d cross-partition leaf links survived the split; test needs a longer partition", crossLinks)
	}

	net.drop = nil
	deadline := net.sim.Now() + 20*time.Minute
	for net.sim.Now() < deadline && !ringRepaired(nodes) {
		net.run(30 * time.Second)
	}
	if !ringRepaired(nodes) {
		t.Fatalf("overlay never re-merged after heal")
	}
}

// TestReconnectCacheExpires checks the post-mortem traffic bound: records
// for a genuinely crashed peer are retried at most reconnectRetries times
// and then dropped, leaving the graveyard empty.
func TestReconnectCacheExpires(t *testing.T) {
	net := newTestNet(t, 3)
	nodes := buildOverlay(t, net, 8, testConfig())

	dead := nodes[len(nodes)-1]
	dead.Fail()
	// Long enough for detection plus reconnectRetries probes at
	// reconnectInterval. Leaf repair replaces the dead node quickly; the
	// graveyard keeps pinging it until the retry budget runs out.
	horizon := 2*time.Minute + time.Duration(reconnectRetries+2)*reconnectInterval
	net.run(horizon)
	for _, n := range nodes[:len(nodes)-1] {
		if rec := n.graveFor(dead.Ref().ID); rec != nil {
			t.Fatalf("node %v still holds a reconnect record for the dead node (tries=%d)",
				n.Ref().ID, rec.tries)
		}
	}
}

// TestReconnectRecordLiftedOnContact checks that direct contact from a
// previously purged peer clears its reconnect record.
func TestReconnectRecordLiftedOnContact(t *testing.T) {
	net := newTestNet(t, 3)
	node := net.addNode(id.Random(net.sim.Rand()), testConfig(), nil)
	peer := NodeRef{ID: id.Random(net.sim.Rand()), Addr: "peer"}
	node.rememberFailed(peer)
	if node.graveFor(peer.ID) == nil {
		t.Fatalf("rememberFailed did not record the peer")
	}
	node.noteContact(peer, 0)
	if node.graveFor(peer.ID) != nil {
		t.Fatalf("noteContact left the reconnect record in place")
	}
}
