package pastry

import (
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/id"
)

// Hop and probe records are reused (takeHop, startProbe). These tests hold
// the reuse to what makes it safe: a record is parked once, empty, with its
// timer dead and before control is handed on; whoever takes it next sees
// none of its past, and nothing from its past — a late ack, a cancelled
// timer — reaches its new holder.

// checkRecords verifies the record invariants of one node.
func checkRecords(t *testing.T, n *Node) {
	t.Helper()
	if len(n.freeHops) > n.maxFree() || len(n.freeProbes) > n.maxFree() {
		t.Fatalf("%d hop and %d probe records parked, more than %d", len(n.freeHops), len(n.freeProbes), n.maxFree())
	}
	freeHops := make(map[*pendingHop]bool)
	for _, ph := range n.freeHops {
		if freeHops[ph] {
			t.Fatalf("hop record %p is on the free list twice", ph)
		}
		freeHops[ph] = true
		if ph.n != n || ph.fire == nil {
			t.Fatalf("parked hop record lost its owner or its bound timeout: %+v", ph)
		}
		if ph.lookup != nil || ph.join != nil || ph.timer != nil || ph.tried.n != 0 || ph.tried.spill != nil ||
			ph.xfer != 0 || ph.attempts != 0 || !ph.to.IsZero() || ph.key != (id.ID{}) || ph.sentAt != 0 || ph.retx {
			t.Fatalf("parked hop record is not empty: %+v", ph)
		}
	}
	for xfer, ph := range n.pending {
		if freeHops[ph] {
			t.Fatalf("hop record of transmission %d is pending and on the free list", xfer)
		}
		if ph.xfer != xfer || ph.n != n || ph.timer == nil || (ph.lookup == nil) == (ph.join == nil) || !ph.tried.has(ph.to.ID) {
			t.Fatalf("pending hop %d has a damaged record: %+v", xfer, ph)
		}
	}
	freeProbes := make(map[*probeState]bool)
	for _, ps := range n.freeProbes {
		if freeProbes[ps] {
			t.Fatalf("probe record %p is on the free list twice", ps)
		}
		freeProbes[ps] = true
		if ps.n != n || ps.fire == nil {
			t.Fatalf("parked probe record lost its owner or its bound timeout: %+v", ps)
		}
		if !ps.ref.IsZero() || ps.timer != nil || ps.isLeaf || ps.retries != 0 || ps.announce || ps.reconnect {
			t.Fatalf("parked probe record is not empty: %+v", ps)
		}
	}
	for x, ps := range n.probing {
		if freeProbes[ps] {
			t.Fatalf("probe record of %v is outstanding and on the free list", x)
		}
		if ps.ref.ID != x || ps.n != n || ps.timer == nil {
			t.Fatalf("outstanding probe of %v has a damaged record: %+v", x, ps)
		}
	}
}

// hopNode is an active node at 1000 between the leaves 900 and 1100 whose
// every send is recorded and goes nowhere: the test plays its peers. With
// the retransmission timeout fixed, each hop's timer is due rto after it.
const rto = 100 * time.Millisecond

func hopNode(t *testing.T, cfg Config, obs Observer) (net *testNet, n *Node, sent *[]Message) {
	t.Helper()
	cfg.MinRTO, cfg.MaxRTO = rto, rto
	net = newTestNet(t, 1)
	n = net.addNode(id.New(0, 1000), cfg, obs)
	n.ls.Add(ref(900))
	n.ls.Add(ref(1100))
	n.active = true
	sent = new([]Message)
	net.drop = func(_, _ NodeRef, m Message) bool {
		*sent = append(*sent, m)
		return true
	}
	return net, n, sent
}

// lastHop returns the record and envelope of the hop the node sent last.
func lastHop(t *testing.T, n *Node, sent []Message) (*pendingHop, *Envelope) {
	t.Helper()
	for i := len(sent) - 1; i >= 0; i-- {
		if env, ok := sent[i].(*Envelope); ok {
			ph := n.pending[env.Xfer]
			if ph == nil {
				t.Fatalf("hop %d is not pending", env.Xfer)
			}
			return ph, env
		}
	}
	t.Fatal("no hop was sent")
	return nil, nil
}

var (
	keyAt1100 = id.New(0, 1099) // 1100 is its root
	keyAt900  = id.New(0, 901)  // 900 is
)

func TestAckFreesTheRecordForTheNextHop(t *testing.T) {
	net, n, sent := hopNode(t, testConfig(), nil)
	n.Lookup(keyAt1100, nil)
	net.run(0)
	first, env1 := lastHop(t, n, *sent)
	net.run(time.Millisecond)
	n.Receive(&Ack{Xfer: env1.Xfer, From: ref(1100)})
	if len(n.pending) != 0 || len(n.freeHops) != 1 || n.freeHops[0] != first {
		t.Fatalf("after the ack: %d pending, free list %v, want the hop's record parked", len(n.pending), n.freeHops)
	}
	checkRecords(t, n)

	// The next hop takes the record while the first hop's timer, cancelled
	// at the ack, would still be due: at rto, were it alive, it would time
	// out the second hop half a timeout early.
	net.run(rto/2 - time.Millisecond)
	n.Lookup(keyAt900, nil)
	net.run(0)
	second, env2 := lastHop(t, n, *sent)
	if second != first {
		t.Fatal("the second hop did not reuse the first hop's record")
	}
	if second.lookup != env2.Lookup || second.to != ref(900) || second.tried.has(ref(1100).ID) || second.attempts != 0 || second.retx {
		t.Fatalf("the reused record carries its past: %+v", second)
	}
	net.run(rto/2 + rto/4)
	if n.counters.Retransmits != 0 {
		t.Fatal("the first hop's cancelled timer timed out the second hop")
	}
	// A duplicate of the first hop's ack names a transmission that is over.
	n.Receive(&Ack{Xfer: env1.Xfer, From: ref(1100)})
	if n.pending[env2.Xfer] != second || second.lookup != env2.Lookup {
		t.Fatal("a duplicate of the first hop's ack completed the second hop")
	}
	checkRecords(t, n)
	net.run(rto / 4)
	if n.counters.Retransmits != 1 {
		t.Fatalf("the second hop's own timer: %d timeouts at its deadline, want 1", n.counters.Retransmits)
	}
}

// deliverApp is an App whose Deliver runs a hook.
type deliverApp struct{ onDeliver func(*Lookup) }

func (a deliverApp) Deliver(lk *Lookup)     { a.onDeliver(lk) }
func (a deliverApp) Forward(*Lookup) bool   { return true }
func (a deliverApp) Direct(NodeRef, []byte) {}

// A hop that times out with nowhere left to go is delivered here — and the
// application may route something from inside Deliver. The record was
// parked before the hand-off, so that hop takes the very record whose
// timeout is still on the stack, as a delivery's receiver may take the
// delivery in netmodel (TestRecycledDeliverySurvivesReentrantSend).
func TestRecordParkedInItsOwnTimeoutIsTakenByTheHandOff(t *testing.T) {
	cfg := testConfig()
	cfg.HoldOnSuspect = false
	rec := newRecorder()
	net, n, sent := hopNode(t, cfg, rec)
	other := &Lookup{Key: keyAt900, Seq: 77, Origin: n.self}
	n.SetApp(deliverApp{func(lk *Lookup) {
		if lk != other {
			n.sendHop(other, nil, other.Key, ref(900), nil, true)
		}
	}})
	seq, _ := n.Lookup(keyAt1100, nil)
	net.run(0)
	timedOut, _ := lastHop(t, n, *sent)
	net.run(rto) // no ack: 1100 is excluded, and 1000 is the closest node left
	if got := rec.delivered[seq]; got != n.self {
		t.Fatalf("the timed-out lookup was delivered at %v, want here", got)
	}
	taken, env := lastHop(t, n, *sent)
	if taken != timedOut {
		t.Fatal("the hop sent from inside Deliver did not take the record parked by the timeout")
	}
	if env.Lookup != other || taken.lookup != other || taken.to != ref(900) || taken.attempts != 0 ||
		taken.tried.has(ref(1100).ID) || len(n.pending) != 1 || len(n.freeHops) != 0 {
		t.Fatalf("the record did not survive the timeout's return: %+v", taken)
	}
	checkRecords(t, n)
	before := n.counters.Retransmits
	net.run(rto)
	if n.counters.Retransmits != before+1 {
		t.Fatal("the re-entrant hop's timer is not live")
	}
}

// The other two ways a hop ends inside its own timeout: held once the
// destination's retry budget is dry, given up after the last attempt.
// Either way the record is parked, empty, and the lookup lives on (or is
// reported) without it.
func TestTimeoutParksTheRecordBeforeHoldAndGiveUp(t *testing.T) {
	for _, tc := range []struct {
		name           string
		rate           float64
		timeouts       int
		held           int
		dropped        bool
		budgetDenials  uint64
		wantRetransmit uint64
	}{
		{"hold", 0.001, 2, 1, false, 1, 2},
		{"give-up", 0, maxRouteAttempts, 0, true, 0, maxRouteAttempts},
	} {
		cfg := testConfig()
		cfg.RetryBudgetRate, cfg.RetryBudgetBurst = tc.rate, 1
		rec := newRecorder()
		net, n, sent := hopNode(t, cfg, rec)
		seq, _ := n.Lookup(keyAt1100, nil)
		net.run(0)
		ph, env := lastHop(t, n, *sent)
		// 1100 stays silent: suspected and excluded, it remains the key's
		// root, so every timeout retransmits to it, backed off (to MaxRTO).
		net.run(time.Duration(tc.timeouts) * rto)
		if n.counters.Retransmits != tc.wantRetransmit || n.counters.RetryBudgetExhausted != tc.budgetDenials {
			t.Fatalf("%s: %d timeouts, %d budget denials, want %d and %d", tc.name,
				n.counters.Retransmits, n.counters.RetryBudgetExhausted, tc.wantRetransmit, tc.budgetDenials)
		}
		if len(n.pending) != 0 || len(n.freeHops) != 1 || n.freeHops[0] != ph {
			t.Fatalf("%s: %d pending, free list %v, want the record parked", tc.name, len(n.pending), n.freeHops)
		}
		checkRecords(t, n)
		if len(n.holdBuffer) != tc.held || tc.held == 1 && n.holdBuffer[0].lk != env.Lookup {
			t.Fatalf("%s: hold buffer %v", tc.name, n.holdBuffer)
		}
		if reason, dropped := rec.dropped[seq]; dropped != tc.dropped || dropped && reason != DropRetries {
			t.Fatalf("%s: dropped=%v (%v)", tc.name, dropped, reason)
		}
		net.run(10 * rto)
		if n.counters.Retransmits != tc.wantRetransmit {
			t.Fatalf("%s: a timer fired for a hop that was over", tc.name)
		}
	}
}

func TestProbeRecordsAreReusedAndParkedEmpty(t *testing.T) {
	net, n, sent := hopNode(t, testConfig(), nil)
	to := n.cfg.To
	n.probeLeaf(ref(1100))
	first := n.probing[ref(1100).ID]
	net.run(time.Millisecond)
	n.Receive(&LSProbeReply{From: ref(1100)})
	if len(n.probing) != 0 || len(n.freeProbes) != 1 || n.freeProbes[0] != first {
		t.Fatalf("after the reply: %d outstanding, free list %v, want the probe's record parked", len(n.probing), n.freeProbes)
	}
	checkRecords(t, n)
	// The next probe takes the record while the first one's cancelled timer
	// would still be due.
	net.run(to / 2)
	n.probeLiveness(ref(900))
	second := n.probing[ref(900).ID]
	if second != first {
		t.Fatal("the second probe did not reuse the first probe's record")
	}
	if second.isLeaf || second.announce || second.retries != 0 {
		t.Fatalf("the reused record carries its past: %+v", second)
	}
	probes := len(*sent)
	net.run(to/2 + to/4)
	if second.retries != 0 || len(*sent) != probes {
		t.Fatal("the first probe's cancelled timer timed out the second probe")
	}
	n.Receive(&LSProbeReply{From: ref(1100)}) // a duplicate of the first reply
	if n.probing[ref(900).ID] != second {
		t.Fatal("a duplicate of the first probe's reply completed the second probe")
	}
	checkRecords(t, n)
	net.run(to / 4)
	if second.retries != 1 {
		t.Fatalf("the second probe's own timer: %d retries at its deadline, want 1", second.retries)
	}
}

// A stalled join starts over with probes in flight: their records are
// parked with the timers cancelled — as many of the burst as a free list
// keeps — and the retry's first probes take them.
func TestJoinRetryParksProbesInFlight(t *testing.T) {
	net, n, sent := hopNode(t, testConfig(), nil)
	n.active = false
	n.joinSeed = ref(900)
	burst := uint64(n.maxFree() + 3)
	for i := uint64(0); i < burst; i++ {
		n.probeLeaf(ref(901 + 10*i))
	}
	net.run(n.cfg.To / 2)
	n.scheduleJoinRetry()
	if len(n.probing) != 0 || len(n.freeProbes) != n.maxFree() {
		t.Fatalf("after the retry: %d probes outstanding, %d records parked, want 0 and %d", len(n.probing), len(n.freeProbes), n.maxFree())
	}
	if _, env := lastHop(t, n, *sent); env.Join == nil || env.Join.Joiner != n.self {
		t.Fatal("the retry sent no join request")
	}
	checkRecords(t, n)
	n.probeLeaf(ref(1100))
	ps := n.probing[ref(1100).ID]
	net.run(n.cfg.To/2 + n.cfg.To/4) // the cancelled timers' deadline passes
	if ps.retries != 0 {
		t.Fatal("a cancelled probe timer timed out the probe that took its record")
	}
	checkRecords(t, n)
}

func TestTriedSetIsAValue(t *testing.T) {
	var a triedSet
	ids := make([]id.ID, 7) // past the inline four
	for i := range ids {
		ids[i] = id.New(uint64(i), uint64(i)*7+1)
		a.add(ids[i])
		a.add(ids[i]) // already a member: no second entry
		if a.n != i+1 {
			t.Fatalf("after %d distinct adds the set has %d members", i+1, a.n)
		}
		b := a
		a = triedSet{} // what parkHop does to the record the set sat in
		for j, x := range ids {
			if b.has(x) != (j <= i) {
				t.Fatalf("copy of a %d-member set: has(%d) = %v", i+1, j, b.has(x))
			}
			if a.has(x) {
				t.Fatalf("zeroed set still has member %d", j)
			}
		}
		a = b
	}
	var none *triedSet
	if none.has(ids[0]) {
		t.Fatal("nil set has a member")
	}
}

// TestRecordsUnderChurnAndLoss runs an overlay through crashes, joins, loss
// and reordering with lookups throughout and checks every node's records at
// every delivery. The cases that make reuse dangerous must all occur: acks
// for transmissions that are over, crashes with hops in flight, join retries
// with probes in flight.
func TestRecordsUnderChurnAndLoss(t *testing.T) {
	net := newTestNet(t, 24)
	cfg := testConfig()
	nodes := buildOverlay(t, net, 24, cfg)
	rng := rand.New(rand.NewSource(24))
	net.drop = func(_, _ NodeRef, _ Message) bool { return rng.Intn(20) == 0 }
	net.delayFn = func(_, _ NodeRef) time.Duration {
		return 10*time.Millisecond + time.Duration(rng.Intn(40))*time.Millisecond
	}
	var lateAcks, deliveries, parked int
	net.onDeliver = func(dst *Node, m Message) {
		if ack, ok := m.(*Ack); ok && dst.pending[ack.Xfer] == nil {
			lateAcks++
		}
		if deliveries++; deliveries%16 == 0 {
			checkRecords(t, dst)
		}
	}
	alive := append([]*Node(nil), nodes...)
	randomAlive := func() *Node { return alive[rng.Intn(len(alive))] }
	var crashedMidHop, retriedMidProbe int
	for round := 0; round < 30; round++ {
		for i := 0; i < 20; i++ {
			randomAlive().Lookup(id.Random(rng), nil)
			net.run(50 * time.Millisecond)
		}
		// Crash a node right after it issued lookups: their hops are out.
		v := randomAlive()
		for i := 0; i < 3; i++ {
			v.Lookup(id.Random(rng), nil)
		}
		net.run(5 * time.Millisecond)
		if len(v.pending) > 0 {
			crashedMidHop++
		}
		v.Fail()
		for i, n := range alive {
			if n == v {
				alive = append(alive[:i], alive[i+1:]...)
				break
			}
		}
		j := net.addNode(id.Random(rng), cfg, nil)
		j.SetSeedSource(func() (NodeRef, bool) {
			if len(j.probing) > 0 {
				retriedMidProbe++
			}
			return randomAlive().Ref(), true
		})
		j.Join(randomAlive().Ref())
		alive = append(alive, j)
		// Every other join starts over, as its watchdog would have it, at the
		// worst moment: the reply is in and the leaf set is being probed.
		for step := 0; round%2 == 0 && step < 200 && !j.active; step++ {
			if len(j.probing) > 0 {
				j.scheduleJoinRetry()
				break
			}
			net.run(10 * time.Millisecond)
		}
		net.run(time.Duration(5+rng.Intn(40)) * time.Second)
	}
	net.drop = nil
	net.run(2 * time.Minute)
	for _, n := range alive {
		checkRecords(t, n)
		if len(n.pending) != 0 {
			t.Errorf("node %v: %d hops pending on a quiet network", n.self.ID, len(n.pending))
		}
		parked += len(n.freeHops)
	}
	for _, n := range net.nodes {
		if !n.alive {
			checkRecords(t, n) // a crash leaves the records as they were
		}
	}
	t.Logf("acks for finished transmissions %d, crashes with hops in flight %d, join retries with probes in flight %d, hop records parked at the end %d",
		lateAcks, crashedMidHop, retriedMidProbe, parked)
	if lateAcks == 0 || crashedMidHop == 0 || retriedMidProbe == 0 || parked == 0 {
		t.Fatal("a case the run exists for did not occur")
	}
}

// TestRecordAllocations pins, with the free lists warm, what the node's
// own bookkeeping may allocate beside the messages it sends and the one
// handle the Env returns per timer (the test Env's is an *eventsim.Event).
// Exact maxima: the next closure someone adds to transmit fails here.
func TestRecordAllocations(t *testing.T) {
	const handle = 1
	net, n, _ := hopNode(t, testConfig(), nil)
	for _, l := range fullLeafSet(n.self.ID, n.cfg.L) {
		n.ls.Add(l)
	}
	retxTo := make(map[id.ID]int) // and record only retransmissions, by destination
	net.drop = func(_, to NodeRef, m Message) bool {
		if env, ok := m.(*Envelope); ok && env.Retx {
			retxTo[to.ID]++
		}
		return true
	}
	prev, next := refID(n.self.ID.Sub(id.New(0, 1))), refID(n.self.ID.Add(id.New(0, 1)))
	alt := refID(next.ID.Add(id.New(0, 1))) // next's key's root once next is excluded
	arriving := &Envelope{Xfer: 9, NeedAck: true, From: prev,
		Lookup: &Lookup{Key: next.ID, Seq: 1, Origin: prev}}
	ack := &Ack{From: next}
	// With prev suspected, this node is the closest left to prev's key, so
	// the hop is retransmitted to prev, backed off, not delivered here.
	toPrev := &Envelope{Xfer: 9, NeedAck: true, From: next,
		Lookup: &Lookup{Key: prev.ID, Seq: 2, Origin: next}}
	altAck, prevAck := &Ack{From: alt}, &Ack{From: prev}
	local := n.self.ID
	for name, pin := range map[string]struct {
		max float64
		f   func()
	}{
		// The ack for the hop that arrived and the envelope that carries
		// the lookup on; taking the next hop's ack costs nothing.
		"forward an acked hop, take its ack": {2 + handle, func() {
			arriving.Lookup.Hops = 0
			n.Receive(arriving)
			ack.Xfer = n.nextXfer
			n.Receive(ack)
		}},
		// The Lookup; the root is the origin itself.
		"Lookup through routeIssued": {1 + handle, func() {
			n.Lookup(local, nil)
			net.run(0)
		}},
		// The probe and (built here, as its sender would) the reply.
		"leaf probe sent, answered, done": {2 + handle, func() {
			n.probeLeaf(next)
			n.Receive(&LSProbeReply{From: next})
		}},
		// The first pin's ack and envelope, then at the timeout next's probe
		// and the envelope to alt; the probe's reply. A timer each for the
		// hop, the probe and the retransmission.
		"hop timeout, reroute to an alternative": {5 + 3*handle, func() {
			arriving.Lookup.Hops = 0
			n.Receive(arriving)
			net.run(rto) // next stays silent
			altAck.Xfer = n.nextXfer
			n.Receive(altAck)
			n.Receive(&LSProbeReply{From: next})
			n.breakerSuccess(next.ID, n.Now()) // as next's ack of a later hop would
		}},
		// As the reroute, with the retransmission going to prev; prev's ack
		// closes its breaker, and idling earns back the retry budget's token.
		"hop timeout, backed-off retransmission to the same peer": {5 + 3*handle, func() {
			toPrev.Lookup.Hops = 0
			n.Receive(toPrev)
			net.run(rto) // prev stays silent
			prevAck.Xfer = n.nextXfer
			n.Receive(prevAck)
			n.Receive(&LSProbeReply{From: prev})
			net.run(time.Second)
		}},
	} {
		pin.f()
		if got := testing.AllocsPerRun(100, pin.f); got > pin.max {
			t.Errorf("%s: %v allocs, want at most %v", name, got, pin.max)
		}
		if len(n.pending) != 0 || len(n.probing) != 0 || len(n.holdBuffer) != 0 {
			t.Fatalf("%s: the pinned path left %d hops, %d probes, %d held lookups", name, len(n.pending), len(n.probing), len(n.holdBuffer))
		}
	}
	checkRecords(t, n)
	// Every run of a timeout pin retransmitted where the pin's name says: a
	// warm-up, AllocsPerRun's own warm-up and its 100 runs.
	if runs := 102; len(retxTo) != 2 || retxTo[alt.ID] != runs || retxTo[prev.ID] != runs {
		t.Fatalf("retransmissions by destination %v, want %d each to %v and %v", retxTo, runs, alt.ID, prev.ID)
	}
}
