package pastry

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/id"
)

// Hop, probe and distance-session records are reused (takeHop, startProbe,
// measureDistance). These tests hold the reuse to what makes it safe: a
// record is parked once, empty, with its timers dead and before control is
// handed on; whoever takes it next sees none of its past, and nothing from
// its past — a late ack or echo, a cancelled timer — reaches its new holder.
// A parked record keeps its timer handles, dead, for its next holder to
// re-arm (arm).

// timerPending reports whether tm, a handle of the test Env's, is armed:
// neither fired nor cancelled since it was last armed.
func timerPending(tm Timer) bool {
	return tm != nil && tm.(*eventsim.Event).Armed()
}

// checkRecords verifies the record invariants of one node. An outstanding
// record's timer is pending while the node lives; a crash cancels it.
func checkRecords(t *testing.T, n *Node) {
	t.Helper()
	if len(n.freeHops) > n.maxFree() || len(n.freeProbes) > n.maxFree() || len(n.freeDists) > maxFreeDists {
		t.Fatalf("%d hop, %d probe and %d session records parked, more than %d, %[4]d and %d",
			len(n.freeHops), len(n.freeProbes), len(n.freeDists), n.maxFree(), maxFreeDists)
	}
	freeHops := make(map[*pendingHop]bool)
	for _, ph := range n.freeHops {
		if freeHops[ph] {
			t.Fatalf("hop record %p is on the free list twice", ph)
		}
		freeHops[ph] = true
		if ph.run == nil {
			t.Fatalf("parked hop record lost its bound timeout: %+v", ph)
		}
		if timerPending(ph.timer) {
			t.Fatalf("parked hop record has a live timer: %+v", ph)
		}
		if ph.lookup != nil || ph.join != nil || ph.tried.n != 0 || ph.tried.spill != nil ||
			ph.xfer != 0 || ph.attempts != 0 || !ph.to.IsZero() || ph.key != (id.ID{}) || ph.sentAt != 0 || ph.retx {
			t.Fatalf("parked hop record is not empty: %+v", ph)
		}
	}
	for xfer, ph := range n.pending {
		if freeHops[ph] {
			t.Fatalf("hop record of transmission %d is pending and on the free list", xfer)
		}
		if ph.xfer != xfer || ph.run == nil || timerPending(ph.timer) != n.alive || (ph.lookup == nil) == (ph.join == nil) || !ph.tried.has(ph.to.ID) {
			t.Fatalf("pending hop %d has a damaged record: %+v", xfer, ph)
		}
	}
	freeProbes := make(map[*probeState]bool)
	for _, ps := range n.freeProbes {
		if freeProbes[ps] {
			t.Fatalf("probe record %p is on the free list twice", ps)
		}
		freeProbes[ps] = true
		if ps.run == nil {
			t.Fatalf("parked probe record lost its bound timeout: %+v", ps)
		}
		if timerPending(ps.timer) {
			t.Fatalf("parked probe record has a live timer: %+v", ps)
		}
		if !ps.ref.IsZero() || ps.isLeaf || ps.retries != 0 || ps.announce || ps.reconnect ||
			ps.candidate || ps.rightGone {
			t.Fatalf("parked probe record is not empty: %+v", ps)
		}
	}
	candidates := 0
	for x, ps := range n.probing {
		if freeProbes[ps] {
			t.Fatalf("probe record of %v is outstanding and on the free list", x)
		}
		if ps.ref.ID != x || ps.run == nil || timerPending(ps.timer) != n.alive || ps.candidate && !ps.isLeaf {
			t.Fatalf("outstanding probe of %v has a damaged record: %+v", x, ps)
		}
		listed := slices.Contains(n.candidates, n.self.ID.Clockwise(x))
		if ps.candidate != listed || ps.candidate && n.ls.Contains(x) {
			t.Fatalf("outstanding probe of %v: candidate %v, listed %v, member %v",
				x, ps.candidate, listed, n.ls.Contains(x))
		}
		if ps.candidate {
			candidates++
		}
	}
	if candidates != len(n.candidates) {
		t.Fatalf("%d candidates listed, %d outstanding", len(n.candidates), candidates)
	}
	freeDists := make(map[*distSession]bool)
	for _, ds := range n.freeDists {
		if freeDists[ds] {
			t.Fatalf("session record %p is on the free list twice", ds)
		}
		freeDists[ds] = true
		if timerPending(ds.deadline.timer) || slices.ContainsFunc(ds.sample[:], func(a Alarm) bool { return timerPending(a.timer) }) {
			t.Fatalf("parked session record has a live timer: %+v", ds)
		}
		if !ds.target.IsZero() || ds.want != 0 || ds.sent != 0 || ds.got != 0 || ds.seqs != [distProbeCount]uint64{} ||
			ds.sentAt != [distProbeCount]time.Duration{} || ds.samples != [distProbeCount]time.Duration{} || len(ds.waiters) != 0 ||
			slices.ContainsFunc(ds.waiters[:cap(ds.waiters)], func(w distWaiter) bool { return w != distWaiter{} }) {
			t.Fatalf("parked session record is not empty: %+v", ds)
		}
	}
	for x, ds := range n.distSessions {
		if freeDists[ds] {
			t.Fatalf("session record of %v is measuring and on the free list", x)
		}
		if ds.target.ID != x || ds.deadline.run == nil || timerPending(ds.deadline.timer) != n.alive || ds.want < 1 || ds.want > distProbeCount ||
			ds.sent < 1 || ds.sent > ds.want || ds.got >= ds.want || ds.got > ds.sent || len(ds.waiters) == 0 {
			t.Fatalf("session of %v has a damaged record: %+v", x, ds)
		}
	}
	for seq, ds := range n.distSeqs {
		if freeDists[ds] {
			t.Fatalf("probe %d names a parked session record", seq)
		}
		if n.distSessions[ds.target.ID] != ds || !slices.Contains(ds.seqs[:ds.sent], seq) {
			t.Fatalf("probe %d names a session that did not send it: %+v", seq, ds)
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
	n.probe(ref(900), false, false)
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
// with probes in flight, and distance echoes for sessions that are over
// (PNS is on: every join measures its nearest-neighbour candidates, every
// activation's row announcements are measured by their receivers).
func TestRecordsUnderChurnAndLoss(t *testing.T) {
	net := newTestNet(t, 24)
	cfg := testConfig()
	cfg.PNS = true
	nodes := buildOverlay(t, net, 24, cfg)
	rng := rand.New(rand.NewSource(24))
	// One distance echo in eight is held back past its session's deadline,
	// when the record may measure something else.
	late := distProbeCount*cfg.DistProbeSpacing + 2*cfg.To + time.Second
	net.drop = func(_, to NodeRef, m Message) bool {
		if _, echo := m.(*DistProbeReply); echo && rng.Intn(8) == 0 {
			net.sim.After(late, func() {
				if dst := net.nodes[to.Addr]; dst.Alive() {
					net.onDeliver(dst, m)
					dst.Receive(m)
				}
			})
			return true
		}
		return rng.Intn(20) == 0
	}
	net.delayFn = func(_, _ NodeRef) time.Duration {
		return 10*time.Millisecond + time.Duration(rng.Intn(40))*time.Millisecond
	}
	var lateAcks, lateEchoes, parked, parkedDists int
	net.onDeliver = func(dst *Node, m Message) {
		switch m := m.(type) {
		case *Ack:
			if dst.pending[m.Xfer] == nil {
				lateAcks++
			}
		case *DistProbeReply:
			if dst.distSeqs[m.Seq] == nil {
				lateEchoes++
			}
		}
		checkRecords(t, dst)
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
		parkedDists += len(n.freeDists)
	}
	for _, n := range net.nodes {
		if !n.alive {
			checkRecords(t, n) // a crash leaves the records as they were
		}
	}
	t.Logf("acks for finished transmissions %d, crashes with hops in flight %d, join retries with probes in flight %d, "+
		"echoes for finished sessions %d, hop and session records parked at the end %d and %d",
		lateAcks, crashedMidHop, retriedMidProbe, lateEchoes, parked, parkedDists)
	if lateAcks == 0 || crashedMidHop == 0 || retriedMidProbe == 0 || lateEchoes == 0 || parked == 0 || parkedDists == 0 {
		t.Fatal("a case the run exists for did not occur")
	}
}

// arrivingAt1100 is a receiver's copy, as the simulator and the decoder
// build one, of an acked hop from 900 for a key 1100 is the root of.
func arrivingAt1100() *Envelope {
	return ReceivedCopy(&Envelope{Xfer: 9, NeedAck: true, From: ref(900),
		Lookup: &Lookup{Key: keyAt1100, Seq: 1, Origin: ref(900)}})
}

// A received envelope is the receiver's: it holds the ack the receiver
// owes, and once that is built the lookup's first hop onwards goes out in
// the envelope itself, written once before it is sent.
func TestReceivedEnvelopeCarriesItsAckAndForward(t *testing.T) {
	_, n, sent := hopNode(t, testConfig(), nil)
	env := arrivingAt1100()
	lk, owed := env.Lookup, env.spareAck
	n.Receive(env)
	if len(*sent) != 2 {
		t.Fatalf("sent %d messages, want the ack and the forward", len(*sent))
	}
	ack, ok := (*sent)[0].(*Ack)
	if !ok || owed == nil || ack != owed || ack.Xfer != 9 || ack.From != n.self {
		t.Fatalf("the ack %#v is not the received envelope's own", (*sent)[0])
	}
	if (*sent)[1] != env || env.Lookup != lk || env.From != n.self || env.Xfer != n.nextXfer || !env.NeedAck || env.Retx {
		t.Fatalf("the forward %#v is not the received envelope rewritten for the next hop", (*sent)[1])
	}
	if env.spareAck != nil || lk.spareEnv != nil {
		t.Fatal("a spare outlived its one use")
	}
}

// A value copy of a received Lookup, as the adversary or a redundant round
// makes one, shares its original's spare pointer but is not the lookup the
// spare carries: routed, it goes out in an envelope of its own, and the
// original's envelope is still there for the original.
func TestValueCopyOfReceivedLookupGetsItsOwnEnvelope(t *testing.T) {
	_, n, sent := hopNode(t, testConfig(), nil)
	env := arrivingAt1100()
	orig := env.Lookup
	before := *env
	cp := *orig
	cp.Hops++
	n.routeLookup(&cp, n.Now())
	_, out := lastHop(t, n, *sent)
	if out == env || out.Lookup != &cp {
		t.Fatal("the copy was sent in its original's envelope")
	}
	if *env != before || orig.spareEnv != env {
		t.Fatalf("routing the copy wrote its original's envelope: %#v, was %#v", *env, before)
	}
	n.Receive(env)
	if _, fwd := lastHop(t, n, *sent); fwd != env {
		t.Fatal("the original did not go on in its own envelope")
	}
}

// A hop that times out goes out again in a new envelope: the spare was
// taken by the first transmission, which may still be in flight and must
// arrive as it was sent.
func TestRerouteSendsAFreshEnvelope(t *testing.T) {
	net, n, sent := hopNode(t, testConfig(), nil)
	n.ls.Add(ref(1050)) // the key's closest node once 1100 is excluded
	env := arrivingAt1100()
	n.Receive(env)
	ph, first := lastHop(t, n, *sent)
	if first != env || ph.to != ref(1100) {
		t.Fatalf("the first transmission went to %v in %p, want 1100 in the received envelope", ph.to, first)
	}
	inFlight := *env
	net.run(rto) // 1100 stays silent
	ph, again := lastHop(t, n, *sent)
	if again == env || !again.Retx || again.Lookup != env.Lookup || ph.to != ref(1050) {
		t.Fatalf("the reroute to %v went out in %#v, want a new envelope to 1050", ph.to, again)
	}
	if *env != inFlight {
		t.Fatalf("the reroute rewrote the envelope in flight: %#v, sent as %#v", *env, inFlight)
	}
	checkRecords(t, n)
}

// answer returns the reply a peer at from owes probe, built as its
// handleLSProbe, handleRTProbe or handleDistProbe builds it: in the spare
// the probe carries.
func answer(probe Message, from NodeRef) Message {
	switch p := probe.(type) {
	case *LSProbe:
		r := takeSpare(&p.spareReply)
		*r = LSProbeReply{From: from}
		return r
	case *RTProbe:
		r := takeSpare(&p.spareReply)
		*r = RTProbeReply{From: from}
		return r
	case *DistProbe:
		r := takeSpare(&p.spareReply)
		r.From, r.Seq = from, p.Seq
		return r
	}
	panic(fmt.Sprintf("answer: %T is not a probe", probe))
}

// A probe delivered twice — the simulator's duplication fault hands its
// receiver the same pointer twice — is answered twice: the first time in
// the spare reply it carries, the second in a new one, and building the
// second leaves the first as it was sent.
func TestDuplicatedProbeGetsTwoReplies(t *testing.T) {
	for _, tc := range []struct {
		name  string
		probe func(prober *Node, target NodeRef)
	}{
		{"leaf-set probe", func(p *Node, to NodeRef) { p.probeLeaf(to) }},
		{"routing-table ping", func(p *Node, to NodeRef) { p.probe(to, false, false) }},
		{"distance probe", func(p *Node, to NodeRef) { p.measureDistance(to, 1, nil) }},
	} {
		net := newTestNet(t, 1)
		a := net.addNode(id.New(0, 1000), testConfig(), nil)
		b := net.addNode(id.New(0, 1100), testConfig(), nil)
		var last Message // the last message sent to a, or by a
		net.drop = func(from, to NodeRef, m Message) bool {
			if from == a.self || to == a.self {
				last = m
			}
			return true
		}
		tc.probe(a, b.self)
		probe := last
		var spare Message
		switch p := probe.(type) {
		case *LSProbe:
			spare = p.spareReply
		case *RTProbe:
			spare = p.spareReply
		case *DistProbe:
			spare = p.spareReply
		}
		b.Receive(probe)
		first := last
		sentAs := string(AppendMessage(nil, first))
		b.Receive(probe)
		second := last
		if first != spare {
			t.Errorf("%s: the first reply %p is not the probe's spare %p", tc.name, first, spare)
		}
		if second == first {
			t.Fatalf("%s: the second delivery was answered in %p, the first reply's object", tc.name, second)
		}
		if string(AppendMessage(nil, first)) != sentAs {
			t.Errorf("%s: building the second reply rewrote the first: %#v", tc.name, first)
		}
		if !sameWire(first, second) {
			t.Errorf("%s: the replies differ:\n  %#v\n  %#v", tc.name, first, second)
		}
		if from, _ := second.(contact).sender(); from != b.self {
			t.Errorf("%s: the second reply names %v as its sender, want %v", tc.name, from, b.self)
		}
		if echo, ok := first.(*DistProbeReply); ok && (echo.spareReport == nil || second.(*DistProbeReply).spareReport != nil) {
			t.Errorf("%s: the prober's report went to %p and %p, want the first echo only",
				tc.name, echo.spareReport, second.(*DistProbeReply).spareReport)
		}
	}
}

// A measurement's report goes out in the completing echo's spare when that
// echo is the last probe's. An earlier probe's echo that completes the
// session, having overtaken the last one's, and the deadline send a new
// report: the same report, to the same target.
func TestDistReportWithoutItsSpare(t *testing.T) {
	net, n, sent := hopNode(t, testConfig(), nil)
	target := ref(1100)
	spacing := n.cfg.DistProbeSpacing
	const late = 100 * time.Millisecond
	// measure sends a measurement's probes, answers them in their spares
	// and returns the echoes in probe order, late after the last probe.
	measure := func() []*DistProbeReply {
		*sent = (*sent)[:0]
		n.measureDistance(target, distProbeCount, nil)
		net.run(time.Duration(distProbeCount-1) * spacing)
		var echoes []*DistProbeReply
		for _, m := range *sent {
			if p, ok := m.(*DistProbe); ok {
				echoes = append(echoes, answer(p, target).(*DistProbeReply))
			}
		}
		if len(echoes) != distProbeCount {
			t.Fatalf("sent %d distance probes, want %d", len(echoes), distProbeCount)
		}
		if echoes[len(echoes)-1].spareReport == nil || echoes[0].spareReport != nil {
			t.Fatal("the report is not in the last probe's echo alone")
		}
		net.run(late)
		*sent = (*sent)[:0]
		return echoes
	}
	// report returns the one DistReport sent since measure, checking it.
	report := func(name string, rtt time.Duration) *DistReport {
		var out *DistReport
		for _, m := range *sent {
			if r, ok := m.(*DistReport); ok {
				if out != nil {
					t.Fatalf("%s: two reports sent", name)
				}
				out = r
			}
		}
		if out == nil || *out != (DistReport{From: n.self, RTT: rtt}) {
			t.Fatalf("%s: sent report %+v, want one from %v with RTT %v", name, out, n.self, rtt)
		}
		return out
	}

	// In order: the last echo completes the session, in its spare. The
	// samples are 2, 1 and 0 spacings, each plus late.
	echoes := measure()
	spare := echoes[2].spareReport
	for _, e := range echoes {
		n.Receive(e)
	}
	if r := report("in order", spacing+late); r != spare || echoes[2].spareReport != nil {
		t.Fatalf("in order: the report %p is not the last echo's spare %p, taken", r, spare)
	}

	// Out of order: the last echo overtakes the others, and the second
	// completes the session.
	echoes = measure()
	spare = echoes[2].spareReport
	for _, i := range []int{2, 0, 1} {
		n.Receive(echoes[i])
	}
	if r := report("out of order", spacing+late); r == spare || echoes[2].spareReport != spare {
		t.Fatal("out of order: the report went out in the last echo's spare, which did not complete the session")
	}

	// At the deadline: only the last echo is back.
	echoes = measure()
	spare = echoes[2].spareReport
	n.Receive(echoes[2])
	net.run(spacing + 2*n.cfg.To) // the deadline is 3 spacings and 2 To after the first probe
	if r := report("deadline", late); r == spare {
		t.Fatal("deadline: the report went out in the last echo's spare")
	}
	if len(n.distSessions) != 0 || len(n.distSeqs) != 0 {
		t.Fatalf("%d sessions and %d probe seqs left", len(n.distSessions), len(n.distSeqs))
	}
}

// TestRecordAllocations pins, with the free lists warm, what the node's
// own bookkeeping may allocate beside the messages it sends: nothing. A
// timer costs nothing either, as every slot a pin arms (a record's or the
// node's) re-arms the handle it kept (the test Env is a Rearmer). Exact
// maxima: the next closure someone adds to transmit or to a distance
// measurement, or a slot that drops its handle, fails here.
func TestRecordAllocations(t *testing.T) {
	net, n, _ := hopNode(t, testConfig(), nil)
	for _, l := range fullLeafSet(n.self.ID, n.cfg.L) {
		n.ls.Add(l)
	}
	retxTo := make(map[id.ID]int) // and record only retransmissions, by destination
	var last Message              // and the last message sent
	net.drop = func(_, to NodeRef, m Message) bool {
		if env, ok := m.(*Envelope); ok && env.Retx {
			retxTo[to.ID]++
		}
		last = m
		return true
	}
	prev, next := refID(n.self.ID.Sub(id.New(0, 1))), refID(n.self.ID.Add(id.New(0, 1)))
	alt := refID(next.ID.Add(id.New(0, 1))) // next's key's root once next is excluded
	arriving := &Envelope{Xfer: 9, NeedAck: true, From: prev,
		Lookup: &Lookup{Key: next.ID, Seq: 1, Origin: prev}}
	ack := &Ack{From: next}
	// Each run of the received-hop pin takes one receiver's copy of
	// arriving, built here, as the simulator and the decoder build them:
	// a warm-up, AllocsPerRun's own warm-up and its 100 runs.
	copies := make([]*Envelope, 102)
	for i := range copies {
		copies[i] = ReceivedCopy(arriving)
	}
	// With prev suspected, this node is the closest left to prev's key, so
	// the hop is retransmitted to prev, backed off, not delivered here.
	toPrev := &Envelope{Xfer: 9, NeedAck: true, From: next,
		Lookup: &Lookup{Key: prev.ID, Seq: 2, Origin: next}}
	altAck, prevAck := &Ack{From: alt}, &Ack{From: prev}
	local := n.self.ID
	// Distance echoes, as next and prev would send them, and a search
	// round that waits for more samples than the pins take.
	var echoes [distProbeCount]*DistProbeReply
	for i := range echoes {
		echoes[i] = &DistProbeReply{From: next}
	}
	nnEcho := &DistProbeReply{From: prev}
	n.nn = &nnState{current: prev, pendingN: 1 << 30}
	for name, pin := range map[string]struct {
		max float64
		f   func()
	}{
		// Nothing: a received envelope holds the ack its receiver owes and
		// is itself the envelope the lookup goes on in; taking the next
		// hop's ack costs nothing.
		"forward a received hop, take its ack": {0, func() {
			env := copies[0]
			copies = copies[1:]
			n.Receive(env)
			if ack.Xfer = n.nextXfer; env.Xfer != ack.Xfer {
				t.Fatal("the received envelope did not carry the lookup on")
			}
			n.Receive(ack)
		}},
		// A hop built by hand has no spares: the ack for it and the
		// envelope that carries the lookup on.
		"forward a hand-built acked hop, take its ack": {2, func() {
			arriving.Lookup.Hops = 0
			n.Receive(arriving)
			ack.Xfer = n.nextXfer
			n.Receive(ack)
		}},
		// The Lookup, with the envelope of its first hop inside; the root
		// is the origin itself.
		"Lookup through routeIssued": {1, func() {
			n.Lookup(local, nil)
			net.run(0)
		}},
		// The probe, with the reply its peer owes inside.
		"leaf probe sent, answered in its spare, done": {1, func() {
			n.probeLeaf(next)
			n.Receive(answer(last, next))
		}},
		"routing-table ping, answered in its spare": {1, func() {
			n.probe(next, false, false)
			n.Receive(answer(last, next))
		}},
		// A reply built by hand has no spare: the probe and the reply.
		"leaf probe sent, answered, done": {2, func() {
			n.probeLeaf(next)
			n.Receive(&LSProbeReply{From: next})
		}},
		// The first pin's ack and envelope, then at the timeout next's probe
		// and the envelope to alt; the probe's reply.
		"hop timeout, reroute to an alternative": {5, func() {
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
		"hop timeout, backed-off retransmission to the same peer": {5, func() {
			toPrev.Lookup.Hops = 0
			n.Receive(toPrev)
			net.run(rto) // prev stays silent
			prevAck.Xfer = n.nextXfer
			n.Receive(prevAck)
			n.Receive(&LSProbeReply{From: prev})
			net.run(time.Second)
		}},
		// Three probes, each with its echo inside; the last holds the
		// symmetric report too.
		"3-sample measurement answered in the spares, offered to the table": {3, func() {
			n.measureDistance(next, distProbeCount, nil)
			for i := range distProbeCount {
				if i > 0 {
					net.run(n.cfg.DistProbeSpacing)
				}
				n.Receive(answer(last, next))
			}
		}},
		// The one probe, with its echo and the report inside.
		"1-sample nearest-neighbour sample, answered in the spare": {1, func() {
			n.measureDistance(prev, 1, n.nn)
			n.Receive(answer(last, prev))
		}},
		// Echoes built by hand carry no report: three probes, the report.
		"3-sample measurement, offered to the table": {4, func() {
			n.measureDistance(next, distProbeCount, nil)
			for i, echo := range echoes {
				if i > 0 {
					net.run(n.cfg.DistProbeSpacing)
				}
				echo.Seq = n.nextDistSeq
				n.Receive(echo)
			}
		}},
		// As above with one sample: the probe, the report.
		"1-sample measurement, a nearest-neighbour sample": {2, func() {
			n.measureDistance(prev, 1, n.nn)
			nnEcho.Seq = n.nextDistSeq
			n.Receive(nnEcho)
		}},
	} {
		pin.f()
		if got := testing.AllocsPerRun(100, pin.f); got > pin.max {
			t.Errorf("%s: %v allocs, want at most %v", name, got, pin.max)
		}
		if len(n.pending) != 0 || len(n.probing) != 0 || len(n.holdBuffer) != 0 || len(n.distSessions) != 0 {
			t.Fatalf("%s: the pinned path left %d hops, %d probes, %d held lookups, %d distance sessions",
				name, len(n.pending), len(n.probing), len(n.holdBuffer), len(n.distSessions))
		}
	}
	checkRecords(t, n)
	if _, ok := n.rt.RTT(next.ID); !ok || !n.nn.haveCand || n.nn.bestCand != prev {
		t.Fatal("a pinned measurement did not complete")
	}
	// Every run of a timeout pin retransmitted where the pin's name says: a
	// warm-up, AllocsPerRun's own warm-up and its 100 runs.
	if runs := 102; len(retxTo) != 2 || retxTo[alt.ID] != runs || retxTo[prev.ID] != runs {
		t.Fatalf("retransmissions by destination %v, want %d each to %v and %v", retxTo, runs, alt.ID, prev.ID)
	}
}

// eventLog records every observer event with its time and node, in order.
type eventLog struct{ lines []string }

func (l *eventLog) add(n *Node, format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf("%v %s ", n.Now(), n.self.Addr)+fmt.Sprintf(format, args...))
}

func (l *eventLog) Activated(n *Node, d time.Duration) { l.add(n, "activated after %v", d) }
func (l *eventLog) Delivered(n *Node, lk *Lookup)      { l.add(n, "delivered %x", lk.TraceID) }
func (l *eventLog) LookupDropped(n *Node, lk *Lookup, r DropReason) {
	l.add(n, "dropped %x: %v", lk.TraceID, r)
}
func (l *eventLog) LookupIssued(n *Node, lk *Lookup) { l.add(n, "issued %x", lk.TraceID) }
func (l *eventLog) LookupHop(n *Node, lk *Lookup, to NodeRef, c HopCause) {
	l.add(n, "hop %x to %s: %v", lk.TraceID, to.Addr, c)
}

// TestRearmMovesNothing runs one small overlay through joins, lookups,
// loss and a crash twice: on the test Env, whose nodes re-arm the handles
// their slots keep, and on one that hides Rearmer, so that every arming
// asks Schedule for a new handle (the path of an Env that wraps an
// endpoint without the extension). A re-armed timer keeps its deadline and
// its place in the order, so the runs must agree on every event, counter
// and message, and the simulator must have run as many events.
func TestRearmMovesNothing(t *testing.T) {
	type outcome struct {
		events   []string
		counters []Counters
		sent     map[Category]int
		steps    uint64
		rearmed  int
	}
	run := func(hide bool) outcome {
		net := newTestNet(t, 7)
		net.hideRearm = hide
		log := &eventLog{}
		net.obs = log
		cfg := testConfig()
		cfg.PNS = true
		nodes := buildOverlay(t, net, 12, cfg)
		rng := rand.New(rand.NewSource(7))
		net.drop = func(NodeRef, NodeRef, Message) bool { return rng.Intn(20) == 0 }
		for round := 0; round < 3; round++ {
			for i := 0; i < 40; i++ {
				nodes[rng.Intn(len(nodes))].Lookup(id.Random(rng), nil)
				if i%4 == 0 {
					net.run(30 * time.Millisecond)
				}
			}
			if round == 1 {
				nodes[5].Fail()
			}
			net.run(20 * time.Second)
		}
		out := outcome{events: log.lines, sent: net.sent, steps: net.sim.Steps(), rearmed: net.rearmed}
		for _, n := range nodes {
			out.counters = append(out.counters, n.Stats())
		}
		return out
	}
	kept, plain := run(false), run(true)
	if kept.rearmed == 0 || plain.rearmed != 0 {
		t.Fatalf("handles re-armed: %d with the extension, %d without; want some and none", kept.rearmed, plain.rearmed)
	}
	if !slices.Equal(kept.events, plain.events) {
		for i := range min(len(kept.events), len(plain.events)) {
			if kept.events[i] != plain.events[i] {
				t.Fatalf("event %d: %q re-arming, %q scheduling", i, kept.events[i], plain.events[i])
			}
		}
		t.Fatalf("%d events re-arming, %d scheduling", len(kept.events), len(plain.events))
	}
	if !slices.Equal(kept.counters, plain.counters) || !maps.Equal(kept.sent, plain.sent) || kept.steps != plain.steps {
		t.Fatalf("re-arming: %d steps, sent %v, counters %+v\nscheduling: %d steps, sent %v, counters %+v",
			kept.steps, kept.sent, kept.counters, plain.steps, plain.sent, plain.counters)
	}
	t.Logf("%d events, %d simulator steps, %d handles re-armed", len(kept.events), kept.steps, kept.rearmed)
}
