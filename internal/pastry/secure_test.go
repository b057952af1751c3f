package pastry

import (
	"testing"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/overload"
)

// secureTestConfig returns a small-test config with secure routing on.
func secureTestConfig() Config {
	cfg := testConfig()
	cfg.SecureRouting = true
	return cfg
}

// TestSecureLookupHonestPath checks the no-adversary fast path: a secure
// lookup delivers normally, the root's completion report passes the
// failure test, the session closes without redundant rounds, and no one
// is distrusted.
func TestSecureLookupHonestPath(t *testing.T) {
	net := newTestNet(t, 1)
	nodes := buildOverlay(t, net, 8, secureTestConfig())
	origin := nodes[0]
	key := nodes[5].Ref().ID
	root := trueRoot(nodes, key)

	seq, ok := origin.LookupSecure(key, nil)
	if !ok {
		t.Fatal("lookup refused")
	}
	net.run(30 * time.Second)

	c := origin.Stats()
	if c.SecureReports == 0 || c.SecureTestPass == 0 {
		t.Fatalf("no passing report: %+v", c)
	}
	if c.SecureTestFail != 0 || c.SecureDistrusted != 0 || c.SecureGiveUps != 0 {
		t.Fatalf("honest path raised suspicion: %+v", c)
	}
	if _, live := origin.secureSess[seq]; live {
		t.Fatal("session not closed after accepted report")
	}
	if root.Stats().DeliveredLookups == 0 {
		t.Fatalf("true root %v never delivered", root.Ref().ID)
	}
}

// TestSecureLookupForgedReport injects a forged sparse completion report
// ahead of the honest one: the failure test must flag it, trigger an
// immediate redundant round, and — once the honest report wins the vote —
// distrust the forger (exclusion plus tripped breaker).
func TestSecureLookupForgedReport(t *testing.T) {
	net := newTestNet(t, 1)
	nodes := buildOverlay(t, net, 8, secureTestConfig())
	origin := nodes[0]
	key := nodes[5].Ref().ID

	seq, ok := origin.LookupSecure(key, nil)
	if !ok {
		t.Fatal("lookup refused")
	}
	// Forge a report from a far-away "colluder" with a two-node leaf set
	// before the honest root's report can arrive.
	colluder := NodeRef{ID: key.Distance(id.Half), Addr: "t-colluder"}
	origin.Receive(&RootReport{
		From: colluder,
		Seq:  seq,
		Key:  key,
		Leaves: []NodeRef{
			{ID: id.New(1, 1), Addr: "t-x"},
			{ID: id.New(2, 2), Addr: "t-y"},
		},
	})
	c := origin.Stats()
	if c.SecureTestFail != 1 {
		t.Fatalf("forged report not flagged: %+v", c)
	}
	if c.SecureRedundantRounds != 1 || c.SecureRedundantSends == 0 {
		t.Fatalf("first suspicion did not trigger a redundant round: %+v", c)
	}

	net.run(30 * time.Second)
	c = origin.Stats()
	if c.SecureTestPass == 0 {
		t.Fatalf("honest report never accepted: %+v", c)
	}
	if c.SecureDistrusted != 1 {
		t.Fatalf("forger not distrusted after losing the vote: %+v", c)
	}
	if _, live := origin.secureSess[seq]; live {
		t.Fatal("session not closed")
	}
}

// TestSecureLookupGivesUpAfterMaxRounds starves the origin of reports
// entirely (every RootReport is dropped in flight): the session must
// spend exactly secureMaxRounds redundant rounds and then close with a
// give-up, leaving no timer or session state behind.
func TestSecureLookupGivesUpAfterMaxRounds(t *testing.T) {
	net := newTestNet(t, 1)
	net.drop = func(from, to NodeRef, m Message) bool {
		_, isReport := m.(*RootReport)
		return isReport
	}
	nodes := buildOverlay(t, net, 8, secureTestConfig())
	origin := nodes[0]

	seq, ok := origin.LookupSecure(id.Random(net.sim.Rand()), nil)
	if !ok {
		t.Fatal("lookup refused")
	}
	net.run(2 * time.Minute)

	c := origin.Stats()
	if want := uint64(secureMaxRounds); c.SecureRedundantRounds != want {
		t.Fatalf("redundant rounds = %d, want %d", c.SecureRedundantRounds, want)
	}
	if c.SecureGiveUps != 1 {
		t.Fatalf("give-ups = %d, want 1", c.SecureGiveUps)
	}
	if _, live := origin.secureSess[seq]; live {
		t.Fatal("session not closed after give-up")
	}
}

// TestPruneOverloadStateEvictsDeparted pins the membership eviction:
// breaker and retry-budget state survives the registry sweep only while
// the peer is still in the leaf set or routing table — state about
// anyone else can never influence a next-hop decision and would
// otherwise accumulate without bound under churn.
func TestPruneOverloadStateEvictsDeparted(t *testing.T) {
	net := newTestNet(t, 1)
	nodes := buildOverlay(t, net, 4, testConfig())
	n := nodes[0]
	member := nodes[1].Ref()
	if !n.inRoutingState(member.ID) {
		t.Fatalf("%v not in node 0's routing state", member.ID)
	}
	stranger := id.New(0xdead, 0xbeef)
	if n.inRoutingState(stranger) {
		t.Fatal("stranger unexpectedly in routing state")
	}
	now := net.sim.Now()

	for _, x := range []id.ID{member.ID, stranger} {
		st := n.overloadOf(n.peers.Obtain(x, "", now))
		b := &overload.Breaker{Threshold: n.cfg.BreakerThreshold,
			Cooldown: n.cfg.breakerCooldown, MaxCooldown: n.cfg.breakerMaxCooldown}
		b.Trip(now)
		st.breaker = b
		tb := overload.NewTokenBucket(0.001, 4, now)
		tb.Take(now)
		st.budget = tb
	}

	n.sweepPeers()

	if st := n.overloadFor(member.ID); st == nil || st.breaker == nil || st.budget == nil {
		t.Fatal("active records for a routing-state member were evicted")
	}
	if st := n.overloadFor(stranger); st != nil {
		t.Fatal("records for a departed peer survived pruning")
	}
}

// TestDiverseFirstHops checks the redundancy fan-out selection: no
// duplicates, never self, respects the used set, and caps at
// secureFanout.
func TestDiverseFirstHops(t *testing.T) {
	net := newTestNet(t, 1)
	nodes := buildOverlay(t, net, 10, secureTestConfig())
	n := nodes[0]
	key := id.Random(net.sim.Rand())

	used := make(map[id.ID]bool)
	first := n.diverseFirstHops(key, used)
	if len(first) == 0 || len(first) > secureFanout {
		t.Fatalf("round 1 picked %d hops, want 1..%d", len(first), secureFanout)
	}
	seen := make(map[id.ID]bool)
	for _, h := range first {
		if h.ID == n.Ref().ID {
			t.Fatal("picked self as first hop")
		}
		if seen[h.ID] {
			t.Fatalf("duplicate pick %v", h.ID)
		}
		seen[h.ID] = true
		used[h.ID] = true
	}
	for _, h := range n.diverseFirstHops(key, used) {
		if used[h.ID] {
			t.Fatalf("round 2 reused first hop %v", h.ID)
		}
	}
}
