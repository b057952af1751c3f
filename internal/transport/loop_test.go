package transport

import (
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/overload"
	"mspastry/internal/pastry"
	"mspastry/internal/wire"
)

// countSink is a MetricsSink that keeps what the transport tests assert
// on: the message count of every datagram received, decode errors, send
// errors, sheds by lane and contained handler panics.
type countSink struct {
	mu           sync.Mutex
	datagrams    []int
	decodeErrors int
	sendErrors   int
	shed         [overload.NumLanes]int
	panics       int
}

func (s *countSink) MsgSent(pastry.Category, int)                {}
func (s *countSink) MsgReceived(pastry.Category, int)            {}
func (s *countSink) DatagramSent(int, int, int, time.Duration)   {}
func (s *countSink) DatagramReceived(bytes, msgs int)            { s.add(msgs, 0) }
func (s *countSink) DecodeError()                                { s.add(0, 1) }
func (s *countSink) snapshot() (datagrams []int, decodeErrs int) { return s.add(0, 0) }

func (s *countSink) SendError() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sendErrors++
}

func (s *countSink) sendErrorCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sendErrors
}

func (s *countSink) MsgShed(lane overload.Lane) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shed[lane]++
}

func (s *countSink) HandlerPanic() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.panics++
}

// overloadCounts returns the sheds by lane and the contained panics so far.
func (s *countSink) overloadCounts() (shed [overload.NumLanes]int, panics int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shed, s.panics
}

func (s *countSink) add(msgs, errs int) ([]int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if msgs > 0 {
		s.datagrams = append(s.datagrams, msgs)
	}
	s.decodeErrors += errs
	return slices.Clone(s.datagrams), s.decodeErrors
}

// probeTarget is a bootstrapped node behind a transport, and a bare socket
// standing in for a peer. The node answers every DistProbe, as it handles
// it, with a DistProbeReply of the same Seq to the probe's From — the bare
// socket — so the order in which the event loop handed a frame's messages
// to the node can be read off the socket.
type probeTarget struct {
	tr   *UDP
	sink *countSink
	peer *net.UDPConn
	from pastry.NodeRef // the bare socket as a node
	to   pastry.NodeRef // the node
}

func newProbeTarget(t *testing.T) *probeTarget {
	t.Helper()
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	pt := &probeTarget{tr: tr, sink: &countSink{}}
	tr.SetMetricsSink(pt.sink)
	node, err := tr.CreateNode(id.New(1, 0), liveConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.DoSync(func(n *pastry.Node) { n.Bootstrap() })
	pt.to = node.Ref()
	pt.peer, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pt.peer.Close() })
	pt.from = pastry.NodeRef{ID: id.New(2, 0), Addr: pt.peer.LocalAddr().String()}
	return pt
}

// replies reads n DistProbeReply datagrams off the bare socket and returns
// their Seqs in arrival order (one sender, one loopback flow: the order
// they were sent in).
func (pt *probeTarget) replies(t *testing.T, n int) []uint64 {
	t.Helper()
	var seqs []uint64
	buf := make([]byte, maxPacket)
	pt.peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(seqs) < n {
		k, err := pt.peer.Read(buf)
		if err != nil {
			t.Fatalf("after %d of %d replies: %v", len(seqs), n, err)
		}
		msgs, _, _, err := wire.DecodeAll(buf[:k])
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if r, ok := m.(*pastry.DistProbeReply); ok {
				seqs = append(seqs, r.Seq)
			}
		}
	}
	return seqs
}

// A batch of k messages sent in one turn of the event loop leaves as k
// datagrams of one message each and reaches the node in send order.
func TestUDPBatchDeliveredInSendOrder(t *testing.T) {
	pt := newProbeTarget(t)
	sender, err := Listen("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	const k = 12
	sender.DoSync(func(*pastry.Node) {
		for seq := uint64(1); seq <= k; seq++ {
			sender.Env().Send(pt.to, &pastry.DistProbe{From: pt.from, Seq: seq})
		}
	})
	for i, seq := range pt.replies(t, k) {
		if seq != uint64(i+1) {
			t.Fatalf("reply %d answers probe %d: the batch was handed over out of order", i, seq)
		}
	}
	// The read loop counts a datagram before handing its message over.
	if datagrams, _ := pt.sink.snapshot(); len(datagrams) != k || slices.ContainsFunc(datagrams, func(n int) bool { return n != 1 }) {
		t.Fatalf("received datagrams of %v messages, want %d of one", datagrams, k)
	}
}

// sendRaw writes frame to the target's socket from the bare peer.
func (pt *probeTarget) sendRaw(t *testing.T, frame []byte) {
	t.Helper()
	if _, err := pt.peer.WriteToUDPAddrPort(frame, pt.tr.conn.LocalAddr().(*net.UDPAddr).AddrPort()); err != nil {
		t.Fatal(err)
	}
}

// A batch frame of the older format (kind 2) is dropped whole as one
// decode error, none of its messages delivered, and a single frame sent
// after it is still delivered.
func TestUDPBatchDropsOnlyMalformedEntry(t *testing.T) {
	pt := newProbeTarget(t)
	batch := []byte{wire.Version, 2}
	for seq := uint64(1); seq <= 3; seq++ {
		p := pastry.AppendMessage(nil, &pastry.DistProbe{From: pt.from, Seq: seq})
		batch = append(append(batch, byte(len(p))), p...)
	}
	pt.sendRaw(t, batch)
	pt.sendRaw(t, wire.EncodeSingle(&pastry.DistProbe{From: pt.from, Seq: 4}))
	if got, want := pt.replies(t, 1), []uint64{4}; !slices.Equal(got, want) {
		t.Fatalf("replies to probes %v, want %v", got, want)
	}
	if datagrams, errs := pt.sink.snapshot(); errs != 1 || len(datagrams) != 1 || datagrams[0] != 1 {
		t.Fatalf("sink saw datagrams of %v messages and %d decode errors, want one of 1 and 1", datagrams, errs)
	}
}

// The bounded inbound queue keeps arrival order within a lane: k single
// datagrams go through it and are answered in the order they were sent.
func TestUDPInboundQueueKeepsBatchOrder(t *testing.T) {
	pt := newProbeTarget(t)
	pt.tr.SetInboundQueue(64)
	const k = 6
	for seq := uint64(1); seq <= k; seq++ {
		pt.sendRaw(t, wire.EncodeSingle(&pastry.DistProbe{From: pt.from, Seq: seq}))
	}
	if got, want := pt.replies(t, k), []uint64{1, 2, 3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("replies to probes %v, want %v", got, want)
	}
}

// echoApp answers every direct message with the same payload; the node
// that is not echoing reports each direct arrival and each lookup it
// delivers on got.
type echoApp struct {
	node *pastry.Node
	echo bool
	got  chan struct{}
}

func (a *echoApp) Deliver(*pastry.Lookup) {
	if !a.echo {
		a.got <- struct{}{}
	}
}
func (a *echoApp) Forward(*pastry.Lookup) bool { return true }
func (a *echoApp) Direct(from pastry.NodeRef, payload []byte) {
	if a.echo {
		a.node.SendDirect(from, payload)
		return
	}
	a.got <- struct{}{}
}

// livePair builds two joined nodes on loopback: node 0 reports on its
// app's got, node 1 echoes.
func livePair(tb testing.TB) ([2]*UDP, [2]*echoApp) {
	tb.Helper()
	var trs [2]*UDP
	var apps [2]*echoApp
	for i := range trs {
		tr, err := Listen("127.0.0.1:0", int64(100+i))
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { tr.Close() })
		node, err := tr.CreateNode(id.Zero, liveConfig(), nil)
		if err != nil {
			tb.Fatal(err)
		}
		apps[i] = &echoApp{node: node, echo: i == 1, got: make(chan struct{}, 1)}
		node.SetApp(apps[i])
		trs[i] = tr
	}
	trs[0].DoSync(func(n *pastry.Node) { n.Bootstrap() })
	trs[1].DoSync(func(n *pastry.Node) { n.Join(apps[0].node.Ref()) })
	if !waitFor(tb, 10*time.Second, func() (active bool) {
		trs[1].DoSync(func(n *pastry.Node) { active = n.Active() })
		return active
	}) {
		tb.Fatal("the second node never became active")
	}
	return trs, apps
}

// awaitGot returns a function that waits up to 5 s for one report on got.
func awaitGot(tb testing.TB, got chan struct{}, what string) func() {
	timeout := time.NewTimer(time.Hour)
	tb.Cleanup(func() { timeout.Stop() })
	return func() {
		timeout.Reset(5 * time.Second)
		select {
		case <-got:
		case <-timeout.C:
			tb.Fatalf("no %s within 5 s", what)
		}
	}
}

// pingPong builds two joined nodes on loopback and returns a function that
// makes one SendDirect round trip between them: two datagrams, each
// through Env.Send, the socket, the read loop, the decoder,
// the loop queue and Node.Receive.
func pingPong(tb testing.TB) (roundTrip func()) {
	tb.Helper()
	trs, apps := livePair(tb)
	peer := apps[1].node.Ref()
	body := make([]byte, 32)
	send := func(n *pastry.Node) { n.SendDirect(peer, body) }
	await := awaitGot(tb, apps[0].got, "echo")
	return func() {
		trs[0].Do(send)
		await()
	}
}

// mallocsPer returns the process-wide allocations per call of round over
// 2,000 calls, after 200 that warm queues, buffers and intern tables. The
// loops are goroutines, so testing.AllocsPerRun cannot be used.
func mallocsPer(round func()) float64 {
	for i := 0; i < 200; i++ {
		round()
	}
	const rounds = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / rounds
}

// pingPongBudget is what a SendDirect round trip may allocate: per
// datagram the AppDirect sent, and the AppDirect and its payload copy
// decoded — the protocol's own objects, three per datagram, six per round
// trip. Nothing of the transport's: no address, no slice, no closure, no
// timer, no string (the sender's address is interned).
const pingPongBudget = 6

// TestUDPPingPongAllocations is the live path's end-to-end allocation pin.
// It allows the budget half as much again for what else the runtime does
// meanwhile.
func TestUDPPingPongAllocations(t *testing.T) {
	per := mallocsPer(pingPong(t))
	t.Logf("%.2f allocations per round trip (budget %d, +50%% slack)", per, pingPongBudget)
	if per > pingPongBudget*1.5 {
		t.Errorf("a SendDirect round trip allocates %.2f times, want at most %d (+50%%)", per, pingPongBudget)
	}
}

// forwardedHopBudget is what a lookup hop forwarded by a live node costs
// the process: the hop as node 1's decoder builds it, which holds the ack
// node 1 owes and is the envelope it forwards the lookup in; node 0's
// decodes of that ack and of the forward; node 1's decode of node 0's ack.
// Four decoded messages, and nothing built to send.
const forwardedHopBudget = 4

// TestUDPForwardedHopAllocations pins a lookup hop that arrives at a live
// node and is forwarded: a bare socket sends node 1 a hop, as from node 0,
// for node 0's own key, and node 1 acks it and forwards it to node 0, which
// delivers it. The slack is half an allocation, so one object more on the
// path fails: an ack built by either node, or an envelope built to forward
// in (seven allocations in all when each is built).
func TestUDPForwardedHopAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("race instrumentation allocates on the loops; the run without -race decides this pin")
	}
	trs, apps := livePair(t)
	root := apps[0].node.Ref()
	frame := wire.EncodeSingle(&pastry.Envelope{Xfer: 1 << 60, NeedAck: true, From: root,
		Lookup: &pastry.Lookup{Key: root.ID, Seq: 1, Origin: root}})
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	forwarder := trs[1].conn.LocalAddr().(*net.UDPAddr).AddrPort()
	await := awaitGot(t, apps[0].got, "delivery at the root")
	per := mallocsPer(func() {
		if _, err := peer.WriteToUDPAddrPort(frame, forwarder); err != nil {
			t.Fatal(err)
		}
		await()
	})
	t.Logf("%.2f allocations per forwarded hop (budget %d, +0.5 slack)", per, forwardedHopBudget)
	if per > forwardedHopBudget+0.5 {
		t.Errorf("a forwarded hop allocates %.2f times, want at most %d (+0.5)", per, forwardedHopBudget)
	}
}

// BenchmarkUDPPingPong shows the live path under go test -bench: time and
// allocations of one SendDirect round trip (two datagrams) on loopback.
func BenchmarkUDPPingPong(b *testing.B) {
	roundTrip := pingPong(b)
	for i := 0; i < 200; i++ {
		roundTrip()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
