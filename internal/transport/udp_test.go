package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/id"
	"mspastry/internal/pastry"
)

// liveConfig shortens protocol timers so loopback tests settle quickly.
func liveConfig() pastry.Config {
	cfg := pastry.DefaultConfig()
	cfg.L = 8
	cfg.Tls = time.Second
	cfg.To = 500 * time.Millisecond
	cfg.TickInterval = 500 * time.Millisecond
	cfg.DistProbeSpacing = 100 * time.Millisecond
	return cfg
}

type liveObserver struct {
	mu        sync.Mutex
	activated bool
	delivered []id.ID
}

func (o *liveObserver) Activated(*pastry.Node, time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.activated = true
}

func (o *liveObserver) Delivered(n *pastry.Node, lk *pastry.Lookup) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.delivered = append(o.delivered, lk.Key)
}

func (o *liveObserver) LookupDropped(*pastry.Node, *pastry.Lookup, pastry.DropReason) {}

func (o *liveObserver) isActivated() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.activated
}

func (o *liveObserver) deliveredCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.delivered)
}

func waitFor(t testing.TB, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return cond()
}

func TestUDPOverlayFormsOnLoopback(t *testing.T) {
	const n = 5
	transports := make([]*UDP, 0, n)
	observers := make([]*liveObserver, 0, n)
	defer func() {
		for _, tr := range transports {
			tr.Close()
		}
	}()
	for i := 0; i < n; i++ {
		tr, err := Listen("127.0.0.1:0", int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		transports = append(transports, tr)
		obs := &liveObserver{}
		observers = append(observers, obs)
		if _, err := tr.CreateNode(id.Zero, liveConfig(), obs); err != nil {
			t.Fatal(err)
		}
	}
	// Bootstrap the first node; join the rest through it.
	transports[0].DoSync(func(node *pastry.Node) { node.Bootstrap() })
	var seed pastry.NodeRef
	transports[0].DoSync(func(node *pastry.Node) { seed = node.Ref() })
	for i := 1; i < n; i++ {
		i := i
		transports[i].DoSync(func(node *pastry.Node) { node.Join(seed) })
	}
	for i, obs := range observers {
		if !waitFor(t, 15*time.Second, obs.isActivated) {
			t.Fatalf("node %d never activated over UDP", i)
		}
	}
	// Every node should know every other in this small ring.
	for i, tr := range transports {
		var size int
		tr.DoSync(func(node *pastry.Node) { size = node.Leaf().Size() })
		if size != n-1 {
			t.Fatalf("node %d leaf size = %d, want %d", i, size, n-1)
		}
	}
}

func TestUDPLookupDelivery(t *testing.T) {
	trA, err := Listen("127.0.0.1:0", 10)
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()
	trB, err := Listen("127.0.0.1:0", 11)
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()
	obsA, obsB := &liveObserver{}, &liveObserver{}
	nodeA, err := trA.CreateNode(id.New(1, 0), liveConfig(), obsA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trB.CreateNode(id.New(1<<63, 0), liveConfig(), obsB); err != nil {
		t.Fatal(err)
	}
	trA.DoSync(func(n *pastry.Node) { n.Bootstrap() })
	refA := nodeA.Ref()
	trB.DoSync(func(n *pastry.Node) { n.Join(refA) })
	if !waitFor(t, 10*time.Second, obsB.isActivated) {
		t.Fatal("B never activated")
	}
	// A key adjacent to B's id must be delivered at B.
	trA.Do(func(n *pastry.Node) { n.Lookup(id.New(1<<63, 1), []byte("ping")) })
	if !waitFor(t, 10*time.Second, func() bool { return obsB.deliveredCount() > 0 }) {
		t.Fatal("lookup never delivered at B")
	}
}

func TestUDPCloseIsIdempotent(t *testing.T) {
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.CreateNode(id.Zero, liveConfig(), nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestUDPCreateNodeTwiceFails(t *testing.T) {
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.CreateNode(id.Zero, liveConfig(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.CreateNode(id.Zero, liveConfig(), nil); err == nil {
		t.Fatal("second CreateNode should fail")
	}
}

func TestUDPMalformedPacketIgnored(t *testing.T) {
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sink := &countSink{}
	tr.SetMetricsSink(sink)
	if _, err := tr.CreateNode(id.Zero, liveConfig(), nil); err != nil {
		t.Fatal(err)
	}
	tr.DoSync(func(n *pastry.Node) { n.Bootstrap() })
	// Throw garbage at the socket; the node must survive.
	conn, err := net.Dial("udp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool { _, errs := sink.snapshot(); return errs == 1 }) {
		t.Fatal("malformed packet not counted as a decode error")
	}
	alive := false
	tr.DoSync(func(n *pastry.Node) { alive = n.Alive() })
	if !alive {
		t.Fatal("node died on malformed packet")
	}
}

func TestUDPSendErrorHook(t *testing.T) {
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sink := &countSink{}
	tr.SetMetricsSink(sink)
	if _, err := tr.CreateNode(id.Zero, liveConfig(), nil); err != nil {
		t.Fatal(err)
	}
	tr.DoSync(func(n *pastry.Node) { n.Bootstrap() })
	// An unresolvable address must be counted, not vanish. Send reports it
	// synchronously, before DoSync returns.
	tr.DoSync(func(n *pastry.Node) {
		tr.Env().Send(pastry.NodeRef{Addr: "no-such-host-xyz:bogus"}, &pastry.Envelope{})
	})
	if got := sink.sendErrorCount(); got != 1 {
		t.Fatalf("sink counted %d send errors for an unresolvable address, want 1", got)
	}
	// A message whose frame exceeds the datagram limit is one send error,
	// not a truncated or split datagram.
	tr.DoSync(func(n *pastry.Node) {
		big := &pastry.AppDirect{From: n.Ref(), Payload: make([]byte, maxPacket)}
		tr.Env().Send(n.Ref(), big)
	})
	if got := sink.sendErrorCount(); got != 2 {
		t.Fatalf("sink counted %d send errors after an oversized message, want 2", got)
	}
	sent, _ := tr.Counters()
	if sent != 0 {
		t.Fatalf("failed send counted as sent: %d", sent)
	}
}

func TestUDPAddressCacheReused(t *testing.T) {
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	peer, err := Listen("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if _, err := tr.CreateNode(id.Zero, liveConfig(), nil); err != nil {
		t.Fatal(err)
	}
	to := pastry.NodeRef{ID: id.New(1, 0), Addr: peer.Addr()}
	tr.DoSync(func(n *pastry.Node) {
		tr.Env().Send(to, &pastry.Envelope{})
		tr.Env().Send(to, &pastry.Envelope{})
	})
	var cached int
	tr.DoSync(func(n *pastry.Node) { cached = len(tr.addrs) })
	if cached != 1 {
		t.Fatalf("address cache holds %d entries, want 1", cached)
	}
	if sent, _ := tr.Counters(); sent != 2 {
		t.Fatalf("sent = %d, want 2", sent)
	}
}

// TestUDPCloseStopsTimers: a timer pending at Close used to stay armed,
// its closure keeping the failed node (and any store hung off it)
// reachable for up to a sweep interval. Close now drops the engine, and
// with it every pending timer, and none of their callbacks run
// afterwards. The timers are armed on the loop, where the Env is used.
func TestUDPCloseStopsTimers(t *testing.T) {
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int32
	env := tr.Env()
	var armed []*eventsim.Event
	var cancelled pastry.Timer
	fired := make(chan struct{})
	tr.DoSync(func(*pastry.Node) {
		armed = []*eventsim.Event{
			env.Schedule(time.Hour, func() { ran.Add(1) }).(*eventsim.Event),
			env.Schedule(time.Hour, func() { ran.Add(1) }).(*eventsim.Event),
		}
		cancelled = env.Schedule(time.Hour, func() { ran.Add(1) })
		cancelled.Cancel()
		env.Schedule(0, func() { close(fired) })
	})
	<-fired
	// The cancelled arming leaves the engine when it reaches the top or a
	// push finds the queue full, so it may still be counted.
	if n := pendingTimers(tr); n < len(armed) || n > len(armed)+1 {
		t.Fatalf("%d timers pending, want the %d neither fired nor cancelled (and at most the cancelled one)", n, len(armed))
	}
	tr.DoSync(func(*pastry.Node) {
		if !armed[0].Armed() || !armed[1].Armed() || cancelled.(*eventsim.Event).Armed() {
			t.Error("a timer neither fired nor cancelled is not pending, or the cancelled one is")
		}
	})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.sim != nil {
		t.Error("the engine, and every timer pending in it, outlived Close")
	}
	late := env.Schedule(0, func() { ran.Add(1) })
	if late.(*eventsim.Event).Armed() || env.(pastry.Rearmer).Rearm(late, 0) {
		t.Error("a closed transport queued a timer")
	}
	for _, tm := range append(armed, late.(*eventsim.Event)) {
		tm.Cancel() // a handle outlives its transport
	}
	time.Sleep(20 * time.Millisecond) // a late callback's chance to run
	if n := ran.Load(); n != 0 {
		t.Errorf("%d timer callbacks ran, want none", n)
	}
}

// TestUDPNodeIDFromSeed pins the identifier CreateNode draws for a zero
// ID from Listen's seed: the engine's random source is seeded as the
// transport's own source was, so a seeded node keeps its identifier.
func TestUDPNodeIDFromSeed(t *testing.T) {
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	n, err := tr.CreateNode(id.ID{}, liveConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := n.Ref().ID.String(), "4d65822107fcfd5278629a0f5f3f164f"; got != want {
		t.Errorf("seed 1 drew node ID %s, want %s", got, want)
	}
}
