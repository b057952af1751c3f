package scribe

import (
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/topology"
)

type simCluster struct {
	sim     *eventsim.Simulator
	nw      *netmodel.Network
	engines []*Scribe
}

func newCluster(t *testing.T, n int, seed int64) *simCluster {
	t.Helper()
	sim := eventsim.New(seed)
	topo := topology.CorpNet(topology.CorpNetConfig{Hubs: 6, EdgeRouters: 30}, rand.New(rand.NewSource(seed)))
	nw := netmodel.New(sim, topo, 0)
	c := &simCluster{sim: sim, nw: nw}
	cfg := pastry.DefaultConfig()
	cfg.L = 8
	cfg.PNS = false
	nw.NewCluster(n, cfg, 5*time.Second, func(_ int, node *pastry.Node, ep *netmodel.Endpoint) {
		c.engines = append(c.engines, New(node, ep))
	})
	sim.RunUntil(sim.Now() + time.Minute)
	for i, e := range c.engines {
		if !e.Node().Active() {
			t.Fatalf("node %d not active", i)
		}
	}
	return c
}

func (c *simCluster) settle(d time.Duration) { c.sim.RunUntil(c.sim.Now() + d) }

func TestMulticastReachesAllSubscribers(t *testing.T) {
	c := newCluster(t, 16, 1)
	group := id.New(0xabcd, 0x1234)
	received := make(map[int]int)
	for i := 4; i < 12; i++ {
		i := i
		c.engines[i].Subscribe(group, func(_ id.ID, payload []byte) {
			if string(payload) != "news" {
				t.Fatalf("wrong payload %q", payload)
			}
			received[i]++
		})
	}
	c.settle(10 * time.Second) // let the tree build
	c.engines[0].Publish(group, []byte("news"))
	c.settle(10 * time.Second)
	for i := 4; i < 12; i++ {
		if received[i] != 1 {
			t.Fatalf("subscriber %d received %d copies, want 1", i, received[i])
		}
	}
}

func TestNonSubscribersReceiveNothing(t *testing.T) {
	c := newCluster(t, 12, 2)
	group := id.New(0x9999, 0)
	gotOutside := 0
	c.engines[3].Subscribe(group, func(id.ID, []byte) {})
	c.engines[5].Subscribe(id.New(0x8888, 0), func(id.ID, []byte) { gotOutside++ })
	c.settle(10 * time.Second)
	c.engines[0].Publish(group, []byte("x"))
	c.settle(10 * time.Second)
	if gotOutside != 0 {
		t.Fatal("message leaked to a different group")
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	c := newCluster(t, 12, 3)
	group := id.New(0x7777, 0)
	got := 0
	c.engines[2].Subscribe(group, func(id.ID, []byte) { got++ })
	c.settle(5 * time.Second)
	c.engines[0].Publish(group, []byte("a"))
	c.settle(5 * time.Second)
	c.engines[2].Unsubscribe(group)
	c.settle(time.Second)
	c.engines[0].Publish(group, []byte("b"))
	c.settle(5 * time.Second)
	if got != 1 {
		t.Fatalf("received %d messages, want 1 (after unsubscribe)", got)
	}
}

func TestTreeSurvivesInteriorFailure(t *testing.T) {
	c := newCluster(t, 20, 4)
	group := id.New(0x4242, 0x4242)
	subs := []int{2, 5, 8, 11, 14, 17}
	counts := make(map[int]int)
	for _, i := range subs {
		i := i
		c.engines[i].Subscribe(group, func(id.ID, []byte) { counts[i]++ })
	}
	c.settle(10 * time.Second)
	// Fail the rendezvous root of the group: the worst interior failure.
	rootIdx := 0
	for j := range c.engines {
		if id.CloserToKey(group, c.engines[j].Node().Ref().ID, c.engines[rootIdx].Node().Ref().ID) {
			rootIdx = j
		}
	}
	if ep, ok := c.nw.Endpoint(c.engines[rootIdx].Node().Ref().Addr); ok {
		ep.Fail()
	}
	// Wait for overlay repair plus a soft-state refresh cycle.
	c.settle(3 * time.Minute)
	pub := 0
	if pub == rootIdx {
		pub = 1
	}
	c.engines[pub].Publish(group, []byte("after-failure"))
	c.settle(15 * time.Second)
	for _, i := range subs {
		if i == rootIdx {
			continue
		}
		if counts[i] == 0 {
			t.Fatalf("subscriber %d lost multicast after root failure", i)
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	s := &Scribe{seen: make(map[uint64]bool), seenRing: make([]uint64, 4)}
	if !s.markSeen(1) || s.markSeen(1) {
		t.Fatal("duplicate not suppressed")
	}
	// Ring capacity 4: after 4 more nonces, nonce 1 is forgotten.
	for n := uint64(2); n <= 5; n++ {
		if !s.markSeen(n) {
			t.Fatalf("fresh nonce %d rejected", n)
		}
	}
	if !s.markSeen(1) {
		t.Fatal("evicted nonce should be accepted again")
	}
}

func TestSubscribeCodec(t *testing.T) {
	ref := pastry.NodeRef{ID: id.New(5, 6), Addr: "1.2.3.4:99"}
	group := id.New(7, 8)
	g, ch, ok := decodeSubscribe(encodeSubscribe(group, ref))
	if !ok || g != group || ch != ref {
		t.Fatal("subscribe round trip failed")
	}
	if _, _, ok := decodeSubscribe([]byte{kindSubscribe, 1, 2}); ok {
		t.Fatal("short subscribe accepted")
	}
	gp, payload, ok := decodePublish(encodePublish(group, []byte("pl")))
	if !ok || gp != group || string(payload) != "pl" {
		t.Fatal("publish round trip failed")
	}
	gm, nonce, body, ok := decodeMulticast(encodeMulticast(group, 77, []byte("mc")))
	if !ok || gm != group || nonce != 77 || string(body) != "mc" {
		t.Fatal("multicast round trip failed")
	}
}

func TestPublishWithNoSubscribersIsHarmless(t *testing.T) {
	c := newCluster(t, 8, 5)
	c.engines[0].Publish(id.New(0xeeee, 0), []byte("void"))
	c.settle(10 * time.Second)
	for i, e := range c.engines {
		if e.Delivered != 0 {
			t.Fatalf("node %d delivered a message without subscribers", i)
		}
	}
}
