package pastry

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/id"
)

// testNet is a minimal in-package network for protocol unit tests: uniform
// delay, optional per-message drop hook, full traffic log.
type testNet struct {
	t     *testing.T
	sim   *eventsim.Simulator
	nodes map[string]*Node
	delay time.Duration
	// delayFn, if set, overrides the uniform delay per node pair.
	delayFn func(from, to NodeRef) time.Duration
	// drop decides whether to lose a message (nil = deliver all).
	drop func(from NodeRef, to NodeRef, m Message) bool
	// onDeliver, if set, sees each message just before its receiver does.
	onDeliver func(dst *Node, m Message)
	// obs, if set, observes every node added without an observer of its own.
	obs  Observer
	sent map[Category]int
	// hideRearm gives every node added an Env without the Rearmer
	// extension; rearmed counts the handles the test Env re-armed.
	hideRearm bool
	rearmed   int
}

func newTestNet(t *testing.T, seed int64) *testNet {
	t.Helper()
	return &testNet{
		t:     t,
		sim:   eventsim.New(seed),
		nodes: make(map[string]*Node),
		delay: 10 * time.Millisecond,
		sent:  make(map[Category]int),
	}
}

type testEnv struct {
	net  *testNet
	addr string
	self NodeRef
}

func (e *testEnv) Now() time.Duration { return e.net.sim.Now() }

func (e *testEnv) Rand() *rand.Rand { return e.net.sim.Rand() }

func (e *testEnv) Schedule(d time.Duration, fn func()) Timer {
	return e.net.sim.After(d, fn)
}

// Rearm implements Rearmer, as netmodel.Endpoint does.
func (e *testEnv) Rearm(t Timer, d time.Duration) bool {
	ev, ok := t.(*eventsim.Event)
	if !ok || !e.net.sim.Rearm(ev, d) {
		return false
	}
	e.net.rearmed++
	return true
}

// plainEnv hides the Rearmer extension of the Env it embeds.
type plainEnv struct{ Env }

func (e *testEnv) Send(to NodeRef, m Message) {
	net := e.net
	net.sent[m.Category()]++
	if net.drop != nil && net.drop(e.self, to, m) {
		return
	}
	d := net.delay
	if net.delayFn != nil {
		d = net.delayFn(e.self, to)
	}
	net.sim.After(d, func() {
		if dst, ok := net.nodes[to.Addr]; ok && dst.Alive() && dst.Ref().ID == to.ID {
			if net.onDeliver != nil {
				net.onDeliver(dst, m)
			}
			dst.Receive(m)
		}
	})
}

// addNode creates a node with the given identifier on the test network.
func (net *testNet) addNode(x id.ID, cfg Config, obs Observer) *Node {
	addr := fmt.Sprintf("t%d", len(net.nodes))
	self := NodeRef{ID: x, Addr: addr}
	var env Env = &testEnv{net: net, addr: addr, self: self}
	if net.hideRearm {
		env = plainEnv{env}
	}
	if obs == nil {
		obs = net.obs
	}
	n, err := NewNode(self, cfg, env, obs)
	if err != nil {
		net.t.Fatalf("NewNode: %v", err)
	}
	net.nodes[addr] = n
	return n
}

// run advances the simulation by d.
func (net *testNet) run(d time.Duration) {
	net.sim.RunUntil(net.sim.Now() + d)
}

// testConfig returns a config suitable for small fast tests: no PNS (joins
// go straight through the seed), small leaf sets.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.L = 8
	cfg.PNS = false
	return cfg
}

// newTestNode builds a single standalone node for estimator unit tests.
func newTestNode(t *testing.T, x id.ID) *Node {
	t.Helper()
	net := newTestNet(t, 1)
	return net.addNode(x, testConfig(), nil)
}

// buildOverlay bootstraps n nodes with evenly spread random ids and waits
// for all of them to activate. Returns the nodes in join order.
func buildOverlay(t *testing.T, net *testNet, n int, cfg Config) []*Node {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	nodes := make([]*Node, 0, n)
	first := net.addNode(id.Random(rng), cfg, nil)
	first.Bootstrap()
	nodes = append(nodes, first)
	for i := 1; i < n; i++ {
		node := net.addNode(id.Random(rng), cfg, nil)
		seed := nodes[net.sim.Rand().Intn(len(nodes))]
		node.Join(seed.Ref())
		nodes = append(nodes, node)
		net.run(10 * time.Second)
	}
	net.run(time.Minute)
	for i, node := range nodes {
		if !node.Active() {
			t.Fatalf("node %d (%v) never activated", i, node.Ref().ID)
		}
	}
	return nodes
}

// trueRoot returns the live active node whose id is closest to key.
func trueRoot(nodes []*Node, key id.ID) *Node {
	var best *Node
	for _, n := range nodes {
		if !n.Alive() || !n.Active() {
			continue
		}
		if best == nil || id.CloserToKey(key, n.Ref().ID, best.Ref().ID) {
			best = n
		}
	}
	return best
}

// deliveryRecorder captures Delivered/Dropped events.
type deliveryRecorder struct {
	delivered map[uint64]NodeRef // seq -> delivering node
	dropped   map[uint64]DropReason
	activated int
}

func newRecorder() *deliveryRecorder {
	return &deliveryRecorder{
		delivered: make(map[uint64]NodeRef),
		dropped:   make(map[uint64]DropReason),
	}
}

func (r *deliveryRecorder) Activated(*Node, time.Duration) { r.activated++ }

func (r *deliveryRecorder) Delivered(n *Node, lk *Lookup) {
	r.delivered[lk.Seq] = n.Ref()
}

func (r *deliveryRecorder) LookupDropped(n *Node, lk *Lookup, reason DropReason) {
	r.dropped[lk.Seq] = reason
}

// foreignTimer is a Timer no Env made.
type foreignTimer struct{}

func (foreignTimer) Cancel() {}

// TestCancelledTimerNeverFires holds the test Env to Timer's contract, the
// property the node's record reuse rests on, and to Rearmer's, the one a
// slot's kept handle rests on. A canceller is scheduled before its victim,
// so at the victim's own instant it runs first; a cancelled arming of a
// re-armed victim never runs.
func TestCancelledTimerNeverFires(t *testing.T) {
	const d = 20 * time.Millisecond
	const (
		noRearm          = iota
		rearmCancelled   // by the arming code, after its cancels, to 2d
		rearmPending     // by the arming code, still pending: refused
		rearmFromRunning // by its own callback, once, d later
		rearmForeign     // the arming code offers a stranger's handle: refused
	)
	for _, tc := range []struct {
		name   string
		cancel bool
		after  time.Duration // < 0: cancelled by the arming code, twice
		rearm  int
		want   []time.Duration // when the callback ran
	}{
		{"never cancelled", false, 0, noRearm, []time.Duration{d}},
		{"at once, twice", true, -1, noRearm, nil},
		{"from an earlier callback", true, d / 2, noRearm, nil},
		{"from a callback due at the same instant", true, d, noRearm, nil},
		{"cancelled, re-armed before the old deadline", true, -1, rearmCancelled, []time.Duration{2 * d}},
		{"re-armed from its own callback", false, 0, rearmFromRunning, []time.Duration{d, 2 * d}},
		{"re-armed while pending", false, 0, rearmPending, []time.Duration{d}},
		{"a foreign handle re-armed", false, 0, rearmForeign, []time.Duration{d}},
	} {
		net := newTestNet(t, 1)
		env := &testEnv{net: net}
		var victim Timer
		var ran []time.Duration
		if tc.cancel && tc.after >= 0 {
			env.Schedule(tc.after, func() { victim.Cancel() })
		}
		victim = env.Schedule(d, func() {
			ran = append(ran, env.Now())
			victim.Cancel() // on itself, running: nothing
			if tc.rearm == rearmFromRunning && len(ran) == 1 && !env.Rearm(victim, d) {
				t.Errorf("%s: Rearm refused the running timer", tc.name)
			}
		})
		if tc.cancel && tc.after < 0 {
			victim.Cancel()
			victim.Cancel()
		}
		switch tc.rearm {
		case rearmCancelled:
			if !env.Rearm(victim, 2*d) {
				t.Errorf("%s: Rearm refused the cancelled timer", tc.name)
			}
		case rearmPending:
			if env.Rearm(victim, 2*d) {
				t.Errorf("%s: Rearm took a pending timer", tc.name)
			}
		case rearmForeign:
			if env.Rearm(foreignTimer{}, d) {
				t.Errorf("%s: Rearm took a foreign handle", tc.name)
			}
		}
		net.run(3 * d)
		victim.Cancel() // after the deadline: nothing to undo
		if !slices.Equal(ran, tc.want) {
			t.Errorf("%s: the callback ran at %v, want %v", tc.name, ran, tc.want)
		}
	}
}
