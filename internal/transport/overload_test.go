package transport

import (
	"runtime"
	"testing"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/overload"
	"mspastry/internal/pastry"
)

// bombMessage is a Message the node has no handler for: Receive panics on
// it, standing in for a latent handler bug triggered by one peer.
type bombMessage struct{}

func (bombMessage) Category() pastry.Category { return pastry.CatApp }

// TestUDPHandlerPanicContained pins the containment property: a handler
// panic is counted, the node keeps serving, and later messages still get
// through.
func TestUDPHandlerPanicContained(t *testing.T) {
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
	tr.DoSync(func(n *pastry.Node) { tr.deliver(n, bombMessage{}) })
	if _, panics := sink.overloadCounts(); panics != 1 {
		t.Fatalf("panics = %d, want 1", panics)
	}
	alive := false
	tr.DoSync(func(n *pastry.Node) {
		tr.deliver(n, &pastry.Heartbeat{From: pastry.NodeRef{ID: id.New(7, 0), Addr: "127.0.0.1:9"}})
		alive = n.Alive()
	})
	if !alive {
		t.Fatal("node died after contained panic")
	}
}

// TestUDPInboundQueueShedsLowestPriority stalls the event loop while bulk
// and liveness traffic arrives: the bounded inbound queue must shed from
// the bulk lane and keep every liveness message.
func TestUDPInboundQueueShedsLowestPriority(t *testing.T) {
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sink := &countSink{}
	tr.SetMetricsSink(sink)
	tr.SetInboundQueue(2)
	if _, err := tr.CreateNode(id.New(1, 0), liveConfig(), nil); err != nil {
		t.Fatal(err)
	}
	tr.DoSync(func(n *pastry.Node) { n.Bootstrap() })

	peer, err := Listen("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peerNode, err := peer.CreateNode(id.New(1<<62, 0), liveConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	peerRef := peerNode.Ref()
	dst := pastry.NodeRef{ID: id.New(1, 0), Addr: tr.Addr()}

	// Stall the victim's event loop so arrivals pile up in the queue.
	gate := make(chan struct{})
	tr.Do(func(*pastry.Node) { <-gate })

	const bulk = 10
	peer.DoSync(func(*pastry.Node) {
		for i := 0; i < bulk; i++ {
			peer.Env().Send(dst, &pastry.AppDirect{From: peerRef, Payload: []byte{byte(i)}})
		}
		peer.Env().Send(dst, &pastry.Heartbeat{From: peerRef})
		peer.Env().Send(dst, &pastry.Heartbeat{From: peerRef})
	})
	if !waitFor(t, 5*time.Second, func() bool {
		_, received := tr.Counters()
		return received >= bulk+2
	}) {
		t.Fatal("victim never received the traffic")
	}
	close(gate)

	shed, _ := sink.overloadCounts()
	if shed[overload.LaneLiveness] != 0 {
		t.Fatalf("liveness messages shed: %d", shed[overload.LaneLiveness])
	}
	if shed[overload.LaneBulk] == 0 {
		t.Fatalf("no bulk sheds despite a full queue: %v", shed)
	}
}

// TestUDPCloseReleasesGoroutines pins the shutdown path: closing a fleet
// of transports must release their event-loop and read-loop goroutines.
func TestUDPCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var trs []*UDP
	for i := 0; i < 8; i++ {
		tr, err := Listen("127.0.0.1:0", int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.CreateNode(id.Zero, liveConfig(), nil); err != nil {
			t.Fatal(err)
		}
		tr.SetInboundQueue(64)
		tr.DoSync(func(n *pastry.Node) { n.Bootstrap() })
		trs = append(trs, tr)
	}
	for _, tr := range trs {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked on Close: before=%d after=%d", before, runtime.NumGoroutine())
}
