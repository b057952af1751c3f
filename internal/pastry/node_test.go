package pastry

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mspastry/internal/id"
)

func TestBootstrapSingleton(t *testing.T) {
	net := newTestNet(t, 1)
	rec := newRecorder()
	n := net.addNode(id.New(1, 2), testConfig(), rec)
	n.Bootstrap()
	if !n.Active() {
		t.Fatal("bootstrap node should be active immediately")
	}
	// A singleton delivers its own lookups.
	seq, ok := n.Lookup(id.New(9, 9), nil)
	if !ok {
		t.Fatal("lookup refused")
	}
	net.run(time.Second)
	if got := rec.delivered[seq]; got.ID != n.Ref().ID {
		t.Fatalf("lookup delivered at %v, want self", got)
	}
}

func TestTwoNodeJoin(t *testing.T) {
	net := newTestNet(t, 2)
	a := net.addNode(id.New(0, 100), testConfig(), nil)
	b := net.addNode(id.New(1<<63, 100), testConfig(), nil)
	a.Bootstrap()
	b.Join(a.Ref())
	net.run(10 * time.Second)
	if !b.Active() {
		t.Fatal("joiner did not activate")
	}
	if !a.Leaf().Contains(b.Ref().ID) {
		t.Fatal("bootstrap node did not learn the joiner")
	}
	if !b.Leaf().Contains(a.Ref().ID) {
		t.Fatal("joiner did not learn the bootstrap node")
	}
}

func TestOverlayRingConsistency(t *testing.T) {
	net := newTestNet(t, 3)
	nodes := buildOverlay(t, net, 24, testConfig())
	// Every node's immediate neighbours must match the global membership.
	ids := make([]id.ID, len(nodes))
	for i, n := range nodes {
		ids[i] = n.Ref().ID
	}
	for _, n := range nodes {
		self := n.Ref().ID
		var wantRight id.ID
		first := true
		for _, other := range ids {
			if other == self {
				continue
			}
			if first || self.Clockwise(other).Cmp(self.Clockwise(wantRight)) < 0 {
				wantRight = other
				first = false
			}
		}
		right, ok := n.Leaf().RightNeighbour()
		if !ok || right.ID != wantRight {
			t.Fatalf("node %v right neighbour = %v, want %v", self, right.ID, wantRight)
		}
	}
}

func TestLookupsReachTrueRoot(t *testing.T) {
	net := newTestNet(t, 4)
	rec := newRecorder()
	cfg := testConfig()
	nodes := buildOverlayObs(t, net, 20, cfg, rec)
	rng := rand.New(rand.NewSource(5))
	type issue struct {
		seq  uint64
		want id.ID
		from int
	}
	var issues []issue
	for i := 0; i < 100; i++ {
		key := id.Random(rng)
		src := nodes[rng.Intn(len(nodes))]
		want := trueRoot(nodes, key).Ref().ID
		seq, ok := src.Lookup(key, nil)
		if !ok {
			t.Fatal("lookup refused")
		}
		issues = append(issues, issue{seq: seq, want: want, from: rng.Intn(len(nodes))})
		net.run(time.Second)
	}
	net.run(10 * time.Second)
	// Sequence numbers are per-origin; with churn-free overlays every
	// delivery must land at the true root. Since several origins share
	// seq values we only check totals and roots by seq uniqueness per
	// origin — here every origin issues distinct seqs, so collisions can
	// occur across origins. Count deliveries instead.
	if len(rec.delivered) == 0 {
		t.Fatal("no lookups delivered")
	}
	if len(rec.dropped) != 0 {
		t.Fatalf("drops in a failure-free overlay: %v", rec.dropped)
	}
}

// buildOverlayObs is buildOverlay with an observer attached to every node.
func buildOverlayObs(t *testing.T, net *testNet, n int, cfg Config, obs Observer) []*Node {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	nodes := make([]*Node, 0, n)
	first := net.addNode(id.Random(rng), cfg, obs)
	first.Bootstrap()
	nodes = append(nodes, first)
	for i := 1; i < n; i++ {
		node := net.addNode(id.Random(rng), cfg, obs)
		node.Join(nodes[net.sim.Rand().Intn(len(nodes))].Ref())
		nodes = append(nodes, node)
		net.run(10 * time.Second)
	}
	net.run(time.Minute)
	for i, node := range nodes {
		if !node.Active() {
			t.Fatalf("node %d never activated", i)
		}
	}
	return nodes
}

func TestLookupDeliveredAtCorrectRootPerKey(t *testing.T) {
	net := newTestNet(t, 6)
	cfg := testConfig()
	rec := newRecorder()
	nodes := buildOverlayObs(t, net, 16, cfg, rec)
	rng := rand.New(rand.NewSource(6))
	src := nodes[3]
	for i := 0; i < 50; i++ {
		key := id.Random(rng)
		want := trueRoot(nodes, key).Ref()
		seq, _ := src.Lookup(key, nil)
		net.run(5 * time.Second)
		got, ok := rec.delivered[seq]
		if !ok {
			t.Fatalf("lookup %d not delivered", seq)
		}
		if got.ID != want.ID {
			t.Fatalf("lookup for %v delivered at %v, want %v", key, got.ID, want.ID)
		}
	}
}

func TestFailureDetectionRepairsLeafSets(t *testing.T) {
	net := newTestNet(t, 7)
	cfg := testConfig()
	nodes := buildOverlay(t, net, 16, cfg)
	victim := nodes[7]
	victim.Fail()
	// Heartbeat period 30s + probe timeouts (3 retries x 3s) + slack.
	net.run(3 * time.Minute)
	for i, n := range nodes {
		if i == 7 {
			continue
		}
		if n.Leaf().Contains(victim.Ref().ID) {
			t.Fatalf("node %d still has failed node in leaf set", i)
		}
	}
	// Leaf sets must be complete again (repair pulled in replacements).
	for i, n := range nodes {
		if i == 7 {
			continue
		}
		if !n.Leaf().Complete() {
			t.Fatalf("node %d leaf set not repaired", i)
		}
	}
}

func TestLookupSurvivesRootFailureViaAcks(t *testing.T) {
	net := newTestNet(t, 8)
	cfg := testConfig()
	rec := newRecorder()
	nodes := buildOverlayObs(t, net, 16, cfg, rec)
	// Fail a node and immediately look up a key it owned; per-hop acks
	// must reroute to the new root without waiting for active probing.
	victim := nodes[5]
	key := victim.Ref().ID // victim is the root for its own id
	victim.Fail()
	src := nodes[0]
	seq, _ := src.Lookup(key, nil)
	net.run(30 * time.Second)
	got, ok := rec.delivered[seq]
	if !ok {
		t.Fatalf("lookup lost after root failure (drops: %v)", rec.dropped)
	}
	want := trueRoot(nodes, key).Ref().ID
	if got.ID != want {
		t.Fatalf("delivered at %v, want new root %v", got.ID, want)
	}
}

func TestPerHopAckRetransmitOnLoss(t *testing.T) {
	net := newTestNet(t, 9)
	cfg := testConfig()
	rec := newRecorder()
	nodes := buildOverlayObs(t, net, 12, cfg, rec)
	// Drop the first 3 lookup envelopes outright; retransmissions must
	// still deliver the message.
	drops := 0
	net.drop = func(from, to NodeRef, m Message) bool {
		if env, ok := m.(*Envelope); ok && env.Lookup != nil && drops < 3 {
			drops++
			return true
		}
		return false
	}
	src := nodes[2]
	key := id.New(0xdead, 0xbeef)
	seq, _ := src.Lookup(key, nil)
	net.run(time.Minute)
	if _, ok := rec.delivered[seq]; !ok {
		t.Fatalf("lookup lost despite per-hop acks (dropped=%v)", rec.dropped[seq])
	}
	if drops == 0 {
		t.Fatal("test did not exercise loss")
	}
}

func TestNoAckLookupLostOnLoss(t *testing.T) {
	net := newTestNet(t, 10)
	cfg := testConfig()
	cfg.PerHopAcks = false
	rec := newRecorder()
	nodes := buildOverlayObs(t, net, 12, cfg, rec)
	// Drop exactly one lookup envelope: without acks it must vanish.
	dropped := false
	net.drop = func(from, to NodeRef, m Message) bool {
		if env, ok := m.(*Envelope); ok && env.Lookup != nil && !dropped {
			dropped = true
			return true
		}
		return false
	}
	// Find a source whose lookup will take at least one hop.
	src := nodes[0]
	var key id.ID
	rng := rand.New(rand.NewSource(11))
	for {
		key = id.Random(rng)
		if trueRoot(nodes, key).Ref().ID != src.Ref().ID {
			break
		}
	}
	seq, _ := src.Lookup(key, nil)
	net.run(time.Minute)
	if !dropped {
		t.Skip("lookup resolved locally; loss not exercised")
	}
	if _, ok := rec.delivered[seq]; ok {
		t.Fatal("lookup delivered despite loss and no acks")
	}
}

func TestFalsePositiveRecovery(t *testing.T) {
	net := newTestNet(t, 12)
	cfg := testConfig()
	nodes := buildOverlay(t, net, 10, cfg)
	// Pick b and its true left neighbour a: a is the node that expects
	// b's heartbeats, so dropping the directed link b->a makes a falsely
	// mark b faulty while everyone else (including b) stays healthy.
	b := nodes[1]
	var a *Node
	for _, n := range nodes {
		if n == b {
			continue
		}
		if right, ok := n.Leaf().RightNeighbour(); ok && right.ID == b.Ref().ID {
			a = n
			break
		}
	}
	if a == nil {
		t.Fatal("no left neighbour found for b")
	}
	partitioned := true
	net.drop = func(from, to NodeRef, m Message) bool {
		return partitioned && from.ID == b.Ref().ID && to.ID == a.Ref().ID
	}
	net.run(2 * time.Minute)
	if a.Leaf().Contains(b.Ref().ID) {
		t.Fatal("silent neighbour not removed (false positive not induced)")
	}
	partitioned = false
	net.run(2 * time.Minute)
	if !a.Leaf().Contains(b.Ref().ID) {
		t.Fatal("false positive not recovered: b should be back in a's leaf set")
	}
}

func TestInactiveNodeNeverDelivers(t *testing.T) {
	net := newTestNet(t, 13)
	rec := newRecorder()
	cfg := testConfig()
	n := net.addNode(id.New(5, 5), cfg, rec)
	// Not bootstrapped, not joined: lookups must be held, not delivered.
	seq, ok := n.Lookup(id.New(5, 6), nil)
	if !ok {
		t.Fatal("lookup refused")
	}
	net.run(time.Minute)
	if _, delivered := rec.delivered[seq]; delivered {
		t.Fatal("inactive node delivered a lookup")
	}
	// Once bootstrapped, the held lookup is released and delivered.
	n.Bootstrap()
	net.run(time.Second)
	if _, delivered := rec.delivered[seq]; !delivered {
		t.Fatal("held lookup not released on activation")
	}
}

func TestJoinRetryAfterSeedFailure(t *testing.T) {
	net := newTestNet(t, 14)
	cfg := testConfig()
	nodes := buildOverlay(t, net, 8, cfg)
	seed := nodes[3]
	joiner := net.addNode(id.New(0x42, 0x42), cfg, nil)
	joiner.SetSeedSource(func() (NodeRef, bool) { return nodes[0].Ref(), true })
	seed.Fail()
	joiner.Join(seed.Ref())
	net.run(5 * time.Minute)
	if !joiner.Active() {
		t.Fatal("join never completed after seed failure")
	}
}

func TestLookupTTLDrop(t *testing.T) {
	net := newTestNet(t, 15)
	cfg := testConfig()
	cfg.lookupTTL = 1
	rec := newRecorder()
	nodes := buildOverlayObs(t, net, 16, cfg, rec)
	rng := rand.New(rand.NewSource(16))
	// With TTL 1, multi-hop lookups must be dropped with DropTTL.
	sawTTLDrop := false
	for i := 0; i < 30 && !sawTTLDrop; i++ {
		src := nodes[rng.Intn(len(nodes))]
		src.Lookup(id.Random(rng), nil)
		net.run(5 * time.Second)
		for _, reason := range rec.dropped {
			if reason == DropTTL {
				sawTTLDrop = true
			}
		}
	}
	if !sawTTLDrop {
		t.Fatal("no TTL drops observed with TTL=1")
	}
}

func TestChurnManyJoinsAndFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak test")
	}
	net := newTestNet(t, 17)
	cfg := testConfig()
	rec := newRecorder()
	nodes := buildOverlayObs(t, net, 20, cfg, rec)
	rng := rand.New(rand.NewSource(18))
	alive := append([]*Node(nil), nodes...)
	// Alternate failures and joins under light lookup load.
	for round := 0; round < 10; round++ {
		victim := alive[rng.Intn(len(alive))]
		victim.Fail()
		for i, n := range alive {
			if n == victim {
				alive = append(alive[:i], alive[i+1:]...)
				break
			}
		}
		j := net.addNode(id.Random(rng), cfg, rec)
		j.SetSeedSource(func() (NodeRef, bool) {
			return alive[rng.Intn(len(alive))].Ref(), true
		})
		j.Join(alive[rng.Intn(len(alive))].Ref())
		alive = append(alive, j)
		for i := 0; i < 5; i++ {
			alive[rng.Intn(len(alive))].Lookup(id.Random(rng), nil)
		}
		net.run(2 * time.Minute)
	}
	net.run(5 * time.Minute)
	for i, n := range alive {
		if !n.Active() {
			t.Fatalf("node %d not active after churn", i)
		}
		if !n.Leaf().Complete() {
			t.Fatalf("node %d leaf set incomplete after churn", i)
		}
	}
}

// TestSuppressionReducesProbes: lookup traffic stands in for
// failure-detection traffic, so the same overlay sends fewer probes and
// heartbeats over ten busy minutes than over ten idle ones.
func TestSuppressionReducesProbes(t *testing.T) {
	run := func(busy bool) (sent, suppressed uint64) {
		net := newTestNet(t, 19)
		nodes := buildOverlay(t, net, 12, testConfig())
		rng := rand.New(rand.NewSource(20))
		for i := 0; i < 200; i++ {
			if busy {
				nodes[rng.Intn(len(nodes))].Lookup(id.Random(rng), nil)
			}
			net.run(3 * time.Second)
		}
		for _, n := range nodes {
			sent += n.Stats().SentRTProbes + n.Stats().SentHeartbeats
			suppressed += n.Stats().SuppressedProbes
		}
		return sent, suppressed
	}
	busySent, busySuppressed := run(true)
	idleSent, idleSuppressed := run(false)
	if busySent >= idleSent || busySuppressed <= idleSuppressed {
		t.Fatalf("traffic did not replace probes: busy sent %d suppressed %d, idle sent %d suppressed %d",
			busySent, busySuppressed, idleSent, idleSuppressed)
	}
}

// TestCountersAddCoversEveryField catches a counter added to the struct
// but not to Add: every field must double when a value is added to itself.
func TestCountersAddCoversEveryField(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	c.Add(c)
	for i := 0; i < v.NumField(); i++ {
		if got := v.Field(i).Uint(); got != 2*uint64(i+1) {
			t.Errorf("Add skips %s: %d, want %d", v.Type().Field(i).Name, got, 2*(i+1))
		}
	}
}
