package pastry

import (
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/overload"
)

// stressedPeer builds a two-node overlay and then silences the second
// node's Envelope reception: it still answers probes and heartbeats (it
// is alive, just shedding routed traffic), but never acks a hop — the
// shape of an overloaded peer. It returns the two nodes and counters of
// first-transmission and retransmission envelopes addressed to the
// victim, live-updated by the drop hook.
func stressedPeer(t *testing.T, net *testNet, cfg Config, obs Observer) (src, victim *Node, first, retx *int) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	src = net.addNode(id.Random(rng), cfg, obs)
	src.Bootstrap()
	victim = net.addNode(id.Random(rng), cfg, obs)
	victim.Join(src.Ref())
	net.run(time.Minute)
	if !src.Active() || !victim.Active() {
		t.Fatal("overlay did not activate")
	}
	first, retx = new(int), new(int)
	vaddr := victim.Ref().Addr
	net.drop = func(from, to NodeRef, m Message) bool {
		if to.Addr != vaddr {
			return false
		}
		env, ok := m.(*Envelope)
		if !ok {
			return false // probes, acks, heartbeats still flow
		}
		if env.Retx {
			*retx++
		} else {
			*first++
		}
		return true
	}
	return src, victim, first, retx
}

// TestRetryBudgetCapsRetransmissions pins the acceptance property: the
// retransmission volume a stressed peer sees from one sender is capped
// by the retry budget (burst + rate·elapsed), instead of every held
// lookup contributing its own exponential-backoff storm.
func TestRetryBudgetCapsRetransmissions(t *testing.T) {
	run := func(rate float64, burst int) (first, retx int) {
		net := newTestNet(t, 7)
		cfg := testConfig()
		cfg.BreakerThreshold = 0 // isolate the budget from the breaker
		cfg.RetryBudgetRate = rate
		cfg.RetryBudgetBurst = burst
		src, victim, firstN, retxN := stressedPeer(t, net, cfg, nil)
		for i := 0; i < 60; i++ {
			src.Lookup(victim.Ref().ID, nil)
			net.run(time.Second)
		}
		return *firstN, *retxN
	}

	_, retxOff := run(0, 0)  // budget disabled
	_, retxOn := run(0.5, 2) // 2 burst + 0.5/s over 60s => <= 32 charged sends
	const cap = 2 + 30 + 3   // burst + rate*60s + slack
	if retxOn == 0 {
		t.Fatal("budget suppressed every retransmission; expected a trickle")
	}
	if retxOn > cap {
		t.Fatalf("budgeted retransmissions to stressed peer = %d, want <= %d", retxOn, cap)
	}
	if retxOff < 4*retxOn {
		t.Fatalf("budget made no difference: off=%d on=%d", retxOff, retxOn)
	}
}

// TestBreakerOpensAndRecovers drives the circuit breaker through the
// node machinery end to end: consecutive missed acks open it, probe
// replies from the still-alive peer do NOT close it, trial traffic
// failures reopen it with backoff, and once the peer recovers a real
// acked hop closes it and delivery resumes.
func TestBreakerOpensAndRecovers(t *testing.T) {
	net := newTestNet(t, 9)
	rec := newRecorder()
	cfg := testConfig()
	cfg.RetryBudgetRate = 0 // isolate the breaker from the budget
	cfg.BreakerThreshold = 3
	cfg.breakerCooldown = 500 * time.Millisecond
	cfg.breakerMaxCooldown = 2 * time.Second
	src, victim, _, _ := stressedPeer(t, net, cfg, rec)

	for i := 0; i < 10; i++ {
		src.Lookup(victim.Ref().ID, nil)
		net.run(time.Second)
	}
	st := src.Stats()
	if st.BreakerOpens == 0 {
		t.Fatal("breaker never opened against a peer that stopped acking")
	}
	if st.BreakerReopens == 0 {
		t.Fatal("trial failures never reopened the breaker")
	}
	if st.BreakerCloses != 0 {
		t.Fatalf("breaker closed %d times while the peer was shedding all envelopes (probe replies must not close it)", st.BreakerCloses)
	}
	if !victim.Alive() || !victim.Active() {
		t.Fatal("victim should still be alive: it answers probes")
	}
	sum := src.Breakers()
	if sum.Open+sum.HalfOpen == 0 {
		t.Fatalf("no tripped breaker in summary: %+v", sum)
	}

	// The peer recovers: envelopes flow again. The next trial closes the
	// breaker and lookups reach the victim again.
	net.drop = nil
	var recoveredSeq uint64
	deadline := 20
	for i := 0; i < deadline; i++ {
		seq, ok := src.Lookup(victim.Ref().ID, nil)
		if !ok {
			t.Fatal("Lookup refused")
		}
		recoveredSeq = seq
		net.run(time.Second)
		if ref, ok := rec.delivered[seq]; ok && ref.ID == victim.Ref().ID {
			break
		}
	}
	if ref, ok := rec.delivered[recoveredSeq]; !ok || ref.ID != victim.Ref().ID {
		t.Fatalf("delivery never resumed after recovery: delivered=%v", rec.delivered[recoveredSeq])
	}
	if src.Stats().BreakerCloses == 0 {
		t.Fatal("recovered peer's acked hop did not close the breaker")
	}
	if s := src.Breakers(); s.Open != 0 {
		t.Fatalf("breaker still open after recovery: %+v", s)
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
