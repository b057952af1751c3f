package dht

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/hotspot"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/store"
	"mspastry/internal/topology"
)

type simCluster struct {
	sim    *eventsim.Simulator
	nw     *netmodel.Network
	stores []*Store
}

// newNetCluster starts n stores on a fresh seeded network with the given
// link loss, 5 s apart; the caller settles it. Store i is configured by
// cfgs[i%len(cfgs)].
func newNetCluster(n int, seed int64, loss float64, cfgs ...Config) *simCluster {
	sim := eventsim.New(seed)
	topo := topology.CorpNet(topology.CorpNetConfig{Hubs: 6, EdgeRouters: 30}, rand.New(rand.NewSource(seed)))
	c := &simCluster{sim: sim, nw: netmodel.New(sim, topo, loss)}
	pcfg := pastry.DefaultConfig()
	pcfg.L = 8
	pcfg.PNS = false
	c.nw.NewCluster(n, pcfg, 5*time.Second, func(i int, node *pastry.Node, ep *netmodel.Endpoint) {
		c.stores = append(c.stores, New(node, ep, cfgs[i%len(cfgs)]))
	})
	return c
}

func newCluster(t *testing.T, n int, seed int64, cfgs ...Config) *simCluster {
	t.Helper()
	c := newNetCluster(n, seed, 0, cfgs...)
	c.settle(time.Minute)
	for i, s := range c.stores {
		if !s.Node().Active() {
			t.Fatalf("node %d not active", i)
		}
	}
	return c
}

func (c *simCluster) settle(d time.Duration) { c.sim.RunUntil(c.sim.Now() + d) }

func TestPutGetRoundTrip(t *testing.T) {
	c := newCluster(t, 12, 1, DefaultConfig())
	key := id.New(0xfeed, 0xbeef)
	putErr := error(fmt.Errorf("not called"))
	c.stores[2].Put(key, []byte("hello"), func(err error) { putErr = err })
	c.settle(15 * time.Second)
	if putErr != nil {
		t.Fatalf("put: %v", putErr)
	}
	var got []byte
	var getErr error
	c.stores[9].Get(key, func(v []byte, err error) { got, getErr = v, err })
	c.settle(15 * time.Second)
	if getErr != nil {
		t.Fatalf("get: %v", getErr)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestGetMissingKey(t *testing.T) {
	c := newCluster(t, 10, 2, DefaultConfig())
	var err error
	called := false
	c.stores[1].Get(id.New(0x404, 0x404), func(_ []byte, e error) { called, err = true, e })
	c.settle(15 * time.Second)
	if !called {
		t.Fatal("callback never invoked")
	}
	if err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestReplicationFactorHolds(t *testing.T) {
	cfg := DefaultConfig()
	c := newCluster(t, 14, 3, cfg)
	key := id.New(0xabc, 0xdef)
	c.stores[0].Put(key, []byte("replicated"), func(error) {})
	c.settle(10 * time.Second)
	holders := 0
	for _, s := range c.stores {
		if s.HasLocal(key) {
			holders++
		}
	}
	if holders != ReplicationFactor {
		t.Fatalf("replica count = %d, want %d", holders, ReplicationFactor)
	}
}

func TestObjectSurvivesRootFailure(t *testing.T) {
	cfg := DefaultConfig()
	c := newCluster(t, 14, 4, cfg)
	key := id.New(0x1234, 0x5678)
	c.stores[0].Put(key, []byte("durable"), func(error) {})
	c.settle(10 * time.Second)

	// Fail the root (the store holding the object whose node is closest).
	var root *Store
	for _, s := range c.stores {
		if !s.HasLocal(key) {
			continue
		}
		if root == nil || id.CloserToKey(key, s.Node().Ref().ID, root.Node().Ref().ID) {
			root = s
		}
	}
	if root == nil {
		t.Fatal("no holder found")
	}
	if ep, ok := c.nw.Endpoint(root.Node().Ref().Addr); ok {
		ep.Fail()
	}
	// Wait for overlay repair plus a sweep cycle.
	c.settle(3 * time.Minute)

	var got []byte
	var err error
	done := false
	c.stores[5].Get(key, func(v []byte, e error) { got, err, done = v, e, true })
	c.settle(30 * time.Second)
	if !done {
		t.Fatal("get never completed after root failure")
	}
	if err != nil {
		t.Fatalf("get after root failure: %v", err)
	}
	if string(got) != "durable" {
		t.Fatalf("got %q", got)
	}
}

func TestSweepRestoresReplicasAfterFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SweepInterval = 20 * time.Second
	c := newCluster(t, 14, 5, cfg)
	key := id.New(0x777, 0x888)
	c.stores[0].Put(key, []byte("x"), func(error) {})
	c.settle(10 * time.Second)
	// Fail one (non-root) replica holder.
	var victim *Store
	var root *Store
	for _, s := range c.stores {
		if !s.HasLocal(key) {
			continue
		}
		if root == nil || id.CloserToKey(key, s.Node().Ref().ID, root.Node().Ref().ID) {
			root = s
		}
	}
	for _, s := range c.stores {
		if s.HasLocal(key) && s != root {
			victim = s
			break
		}
	}
	if victim == nil {
		t.Fatal("no replica found")
	}
	if ep, ok := c.nw.Endpoint(victim.Node().Ref().Addr); ok {
		ep.Fail()
	}
	// Overlay repair + sweep: a fresh node must take over the replica.
	c.settle(3 * time.Minute)
	holders := 0
	for _, s := range c.stores {
		if s.Node().Alive() && s.HasLocal(key) {
			holders++
		}
	}
	if holders < ReplicationFactor {
		t.Fatalf("replicas not restored: %d < %d", holders, ReplicationFactor)
	}
}

func TestEndToEndRetrySurvivesLoss(t *testing.T) {
	// 10% link loss: per-hop acks handle most of it, and the end-to-end
	// retry absorbs lost responses.
	cfg := DefaultConfig()
	c := newNetCluster(10, 7, 0.10, cfg)
	c.settle(2 * time.Minute)
	sim, stores := c.sim, c.stores

	okPuts := 0
	for i := 0; i < 30; i++ {
		key := id.Random(sim.Rand())
		stores[i%10].Put(key, []byte("v"), func(err error) {
			if err == nil {
				okPuts++
			}
		})
		sim.RunUntil(sim.Now() + 10*time.Second)
	}
	sim.RunUntil(sim.Now() + time.Minute)
	if okPuts < 28 {
		t.Fatalf("only %d/30 puts succeeded under 10%% loss", okPuts)
	}
}

// TestCodecRejects covers what the recorded frames and the fuzz round
// trips do not: a decoder refuses another message's kind, bytes it has no
// field for, values a message's rules forbid, and any truncation.
func TestCodecRejects(t *testing.T) {
	k := id.New(3, 3)
	vias := []via{{id.New(1, 1), "10.0.0.1:9000"}, {id.New(2, 2), "10.0.0.2:9000"}, {k, ""}}
	for name, frame := range map[string][]byte{
		"unknown request kind":         {0xff, 1},
		"delete with a value":          append(encode(&request{kindDelete, 7, nil}), 'v'),
		"short replicate":              {kindReplicate, 1},
		"trailing byte":                append(encode(&syncPull{[]id.ID{id.New(4, 4)}}), 0),
		"not-found reply with a value": encode(&cachedReply{reqID: 7, value: []byte("x")}),
		"version-0 deposit":            encode(&hotspot.Entry{Key: k}),
		"more than maxVia hops":        encode(&getVia{reqID: 1, vias: vias}),
		"via address over the limit":   encode(&getVia{reqID: 1, vias: []via{{k, strings.Repeat("a", maxViaAddr+1)}}}),
		"invalidate trailing byte":     append(encode(&invalidate{k, 1, 1}), 0xaa),
		"unknown get flag":             {kindGetVia, 0x02, 1, 0},
		"unknown reply flag":           {kindCachedReply, 0xff, 1},
		"bare kind":                    {kindGetVia},
		"short deposit":                {kindDeposit, 1, 2, 3},
		"short invalidate":             {kindInvalidate, 0},
		"empty":                        {},
	} {
		for decoder, empty := range decoders {
			if decode(frame, empty()) {
				t.Errorf("%s: accepted as %s", name, decoder)
			}
		}
	}
	want := encode(&handoffKey{kindHandoffWant, id.New(6, 6)})
	if decode(want, &handoffKey{kind: kindHandoffHave}) {
		t.Error("want accepted as have")
	}
	if !decode(append(encode(&ack{kindPutAck, 9}), 0xaa), &ack{kind: kindPutAck}) {
		t.Error("ack with bytes after its id rejected")
	}
	sum := store.Object{Key: id.New(3, 3), Version: 7, Origin: 1, Tombstone: true}.Summarize()
	for _, m := range []any{&syncRoot{sid: 1}, &syncBuckets{sid: 1}, &syncKeys{sums: []store.Summary{sum}},
		&syncPull{[]id.ID{id.New(4, 4)}}, &sum, &ack{kindSyncRootOK, 300}, &getVia{reqID: 1}} {
		frame := encode(m)
		for cut := 0; cut < len(frame); cut++ {
			for decoder, empty := range decoders {
				if decode(frame[:cut], empty()) {
					t.Errorf("%d of %d bytes of a %T accepted as %s", cut, len(frame), m, decoder)
				}
			}
		}
	}
}

// dropPutAcks is a store's application with every put ack it receives lost.
type dropPutAcks struct{ *Store }

func (d dropPutAcks) Direct(from pastry.NodeRef, payload []byte) {
	if len(payload) > 0 && payload[0] == kindPutAck {
		return
	}
	d.Store.Direct(from, payload)
}

// TestEveryOperationCompletesOnce pins the end-to-end completion contract:
// each operation's done runs exactly once, with an error, when its origin
// crashes with it pending and when every reply is lost, and a lost reply
// costs maxRetries retransmissions before ErrTimeout.
func TestEveryOperationCompletesOnce(t *testing.T) {
	c := newCluster(t, 10, 8, DefaultConfig())
	key := c.stores[6].Node().Ref().ID // rooted away from both origins

	t.Run("origin crashes", func(t *testing.T) {
		origin := c.stores[1]
		var putDone, getDone int
		var putErr, getErr error
		origin.Put(key, []byte("v"), func(err error) { putDone, putErr = putDone+1, err })
		origin.Get(key, func(_ []byte, err error) { getDone, getErr = getDone+1, err })
		ep, _ := c.nw.Endpoint(origin.Node().Ref().Addr)
		ep.Fail()
		c.settle(2 * time.Minute)
		if putDone != 1 || putErr == nil || getDone != 1 || getErr == nil {
			t.Fatalf("put done %d times (%v), get done %d times (%v); want each once with an error",
				putDone, putErr, getDone, getErr)
		}
	})

	t.Run("replies lost", func(t *testing.T) {
		origin := c.stores[2]
		origin.Node().SetApp(dropPutAcks{origin})
		done := 0
		var err error
		origin.Put(key, []byte("v"), func(e error) { done, err = done+1, e })
		c.settle(2 * time.Minute)
		if done != 1 || err != ErrTimeout {
			t.Fatalf("put done %d times with %v, want once with ErrTimeout", done, err)
		}
		if got := origin.Counters(); got.Retries != maxRetries || got.PutFail != 1 {
			t.Fatalf("Retries %d, PutFail %d; want %d and 1", got.Retries, got.PutFail, maxRetries)
		}
	})
}

// recordAcks is a store's application that notes the request ids of the
// put and delete acks it receives.
type recordAcks struct {
	*Store
	acks *[]uint64
}

func (r recordAcks) Direct(from pastry.NodeRef, payload []byte) {
	if a := (ack{kind: kindPutAck}); decode(payload, &a) {
		*r.acks = append(*r.acks, a.id)
	} else if a := (ack{kind: kindDeleteAck}); decode(payload, &a) {
		*r.acks = append(*r.acks, a.id)
	}
	r.Store.Direct(from, payload)
}

// A write that reaches the root after a newer write from the same origin
// (an end-to-end retry, a duplicated hop) is acked and not applied: the
// newer value stands, and its version does not move. The root forgets the
// origin's writes after writeHorizon, and drops them from its memory.
func TestLateWriteIsAckedNotApplied(t *testing.T) {
	c := newCluster(t, 10, 3, DefaultConfig())
	root := c.stores[6]
	key := root.Node().Ref().ID
	origin := c.stores[2]
	var acks []uint64
	origin.Node().SetApp(recordAcks{origin, &acks})
	deliver := func(kind byte, reqID uint64, value string) {
		var v []byte
		if kind == kindPut {
			v = []byte(value)
		}
		root.Deliver(&pastry.Lookup{Key: key, Origin: origin.Node().Ref(),
			Payload: encode(&request{kind: kind, reqID: reqID, value: v})})
		c.settle(time.Second)
	}
	held := func() store.Object {
		o, _ := root.Backend().Get(key)
		return o
	}

	deliver(kindPut, 2, "new")
	deliver(kindPut, 1, "old")
	deliver(kindPut, 2, "new again")
	if o := held(); string(o.Value) != "new" || o.Version != 1 {
		t.Fatalf("root holds %q at version %d, want \"new\" at 1", o.Value, o.Version)
	}
	deliver(kindDelete, 1, "")
	if o := held(); o.Tombstone {
		t.Fatal("a late delete removed a newer put")
	}
	if want := []uint64{2, 1, 2, 1}; !reflect.DeepEqual(acks, want) {
		t.Fatalf("origin got acks %v, want %v", acks, want)
	}

	c.settle(writeHorizon)
	deliver(kindPut, 1, "restarted")
	if o := held(); string(o.Value) != "restarted" || o.Version != 2 {
		t.Fatalf("after the horizon the root holds %q at version %d, want \"restarted\" at 2", o.Value, o.Version)
	}
	if len(root.applied) != 1 {
		t.Fatalf("the root remembers %d writes, want the last one alone", len(root.applied))
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
