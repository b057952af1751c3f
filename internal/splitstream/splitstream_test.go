package splitstream

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/scribe"
	"mspastry/internal/topology"
)

func TestSplitReassemble(t *testing.T) {
	f := func(payload []byte, kRaw uint8) bool {
		k := int(kRaw%8) + 1
		blocks := split(payload, k)
		var out []byte
		for _, b := range blocks {
			out = append(out, b...)
		}
		return bytes.Equal(out, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParityRecoversAnySingleBlock(t *testing.T) {
	f := func(payload []byte, kRaw, missRaw uint8) bool {
		k := int(kRaw%6) + 2
		blocks := split(payload, k)
		parity := xorBlocks(blocks)
		missing := int(missRaw) % k
		rec := append([]byte(nil), parity...)
		for i, b := range blocks {
			if i != missing {
				xorInto(rec, b)
			}
		}
		want := blocks[missing]
		return bytes.Equal(rec[:len(want)], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockCodecRoundTrip(t *testing.T) {
	seq, stripe, origLen, block, ok := decodeBlock(encodeBlock(42, 3, 100, []byte("chunk")))
	if !ok || seq != 42 || stripe != 3 || origLen != 100 || string(block) != "chunk" {
		t.Fatal("block codec round trip failed")
	}
	if _, _, _, _, ok := decodeBlock(nil); ok {
		t.Fatal("empty block accepted")
	}
}

func TestStripeGroupsSpreadRoots(t *testing.T) {
	groups := StripeGroups("movie", 4)
	if len(groups) != 5 {
		t.Fatalf("groups = %d, want 5", len(groups))
	}
	seen := map[int]bool{}
	for _, g := range groups {
		d := g.Digit(0, 4)
		if seen[d] {
			t.Fatalf("stripe roots share first digit %x", d)
		}
		seen[d] = true
	}
	// Deterministic per name.
	again := StripeGroups("movie", 4)
	for i := range groups {
		if groups[i] != again[i] {
			t.Fatal("group ids not deterministic")
		}
	}
}

// cluster builds an overlay with a Scribe engine per node.
type cluster struct {
	sim     *eventsim.Simulator
	nw      *netmodel.Network
	engines []*scribe.Scribe
}

func newCluster(t *testing.T, n int, seed int64) *cluster {
	t.Helper()
	sim := eventsim.New(seed)
	topo := topology.CorpNet(topology.CorpNetConfig{Hubs: 6, EdgeRouters: 30}, rand.New(rand.NewSource(seed)))
	nw := netmodel.New(sim, topo, 0)
	c := &cluster{sim: sim, nw: nw}
	cfg := pastry.DefaultConfig()
	cfg.L = 8
	cfg.PNS = false
	nw.NewCluster(n, cfg, 5*time.Second, func(_ int, node *pastry.Node, ep *netmodel.Endpoint) {
		c.engines = append(c.engines, scribe.New(node, ep))
	})
	sim.RunUntil(sim.Now() + time.Minute)
	return c
}

func (c *cluster) settle(d time.Duration) { c.sim.RunUntil(c.sim.Now() + d) }

func TestStreamDelivery(t *testing.T) {
	c := newCluster(t, 16, 1)
	type rx struct {
		seq     uint64
		payload []byte
	}
	received := map[int][]rx{}
	for i := 4; i < 12; i++ {
		i := i
		Join(c.engines[i], "film", func(seq uint64, payload []byte) {
			received[i] = append(received[i], rx{seq, append([]byte(nil), payload...)})
		})
	}
	c.settle(15 * time.Second)
	pub := NewPublisher(c.engines[0], "film")
	var frames [][]byte
	for f := 0; f < 10; f++ {
		frame := bytes.Repeat([]byte{byte('A' + f)}, 100+f*7)
		frames = append(frames, frame)
		pub.Publish(frame)
		c.settle(5 * time.Second)
	}
	c.settle(15 * time.Second)
	for i := 4; i < 12; i++ {
		if len(received[i]) != len(frames) {
			t.Fatalf("subscriber %d received %d/%d frames", i, len(received[i]), len(frames))
		}
		for j, r := range received[i] {
			if !bytes.Equal(r.payload, frames[j]) {
				t.Fatalf("subscriber %d frame %d corrupted", i, j)
			}
		}
	}
}

func TestStreamSurvivesOneStripeLoss(t *testing.T) {
	// Drop every multicast block of stripe 2 on the wire: the parity
	// stripe must cover the gap for every subscriber.
	c := newCluster(t, 14, 2)
	groups := StripeGroups("robust", DataStripes)
	deadStripe := groups[2]
	c.nw.OnSend(func(from *netmodel.Endpoint, to pastry.NodeRef, m pastry.Message, singleBytes int) {})
	// Intercept at the scribe payload level: suppress publishes to the
	// dead stripe group by dropping the stripe's blocks in the handler —
	// simplest faithful approach: publish only to the other stripes.
	got := map[int]int{}
	recovered := map[int]uint64{}
	var chans []*Channel
	for i := 3; i < 11; i++ {
		i := i
		ch := Join(c.engines[i], "robust", func(seq uint64, payload []byte) { got[i]++ })
		chans = append(chans, ch)
		_ = recovered
	}
	c.settle(15 * time.Second)
	pub := NewPublisher(c.engines[0], "robust")
	for f := 0; f < 6; f++ {
		// Publish manually, skipping the dead stripe (as if its tree were
		// severed at the root).
		payload := bytes.Repeat([]byte{byte(f + 1)}, 64)
		pub.nextSeq++
		seq := pub.nextSeq
		blocks := split(payload, pub.k)
		parity := xorBlocks(blocks)
		for i, b := range blocks {
			if groups[i] == deadStripe {
				continue
			}
			c.engines[0].Publish(pub.groups[i], encodeBlock(seq, i, len(payload), b))
		}
		c.engines[0].Publish(pub.groups[pub.k], encodeBlock(seq, pub.k, len(payload), parity))
		c.settle(5 * time.Second)
	}
	c.settle(15 * time.Second)
	for i := 3; i < 11; i++ {
		if got[i] != 6 {
			t.Fatalf("subscriber %d reconstructed %d/6 frames with a dead stripe", i, got[i])
		}
	}
	var totalRecovered uint64
	for _, ch := range chans {
		totalRecovered += ch.Recovered
	}
	if totalRecovered == 0 {
		t.Fatal("no frame used parity recovery — test exercised nothing")
	}
}

func TestLeaveStopsStream(t *testing.T) {
	c := newCluster(t, 10, 3)
	got := 0
	ch := Join(c.engines[2], "quit", func(uint64, []byte) { got++ })
	c.settle(10 * time.Second)
	pub := NewPublisher(c.engines[0], "quit")
	pub.Publish([]byte("one"))
	c.settle(10 * time.Second)
	ch.Leave()
	c.settle(2 * time.Second)
	pub.Publish([]byte("two"))
	c.settle(10 * time.Second)
	if got != 1 {
		t.Fatalf("received %d frames, want 1 (after leave)", got)
	}
}
