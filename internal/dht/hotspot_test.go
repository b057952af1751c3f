package dht

import (
	"testing"
	"time"

	"mspastry/internal/hotspot"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
)

func cachingConfig(sweep time.Duration) Config {
	cfg := DefaultConfig()
	cfg.CacheEntries = 64
	cfg.SweepInterval = sweep
	return cfg
}

// sumCacheCounters totals the hotspot counters across the cluster.
func sumCacheCounters(c *simCluster) Counters {
	var sum Counters
	for _, s := range c.stores {
		cc := s.Counters()
		sum.CacheHitsLocal += cc.CacheHitsLocal
		sum.CacheHitsRemote += cc.CacheHitsRemote
		sum.CacheServes += cc.CacheServes
		sum.CacheDeposits += cc.CacheDeposits
		sum.CacheInvalidations += cc.CacheInvalidations
		sum.CacheStaleRejected += cc.CacheStaleRejected
	}
	return sum
}

func TestHotspotCachingEndToEnd(t *testing.T) {
	c := newCluster(t, 12, 7, cachingConfig(60*time.Second))
	key := id.New(0xca5e, 0x1d)

	var putErr error
	c.stores[2].Put(key, []byte("v1"), func(err error) { putErr = err })
	c.settle(15 * time.Second)
	if putErr != nil {
		t.Fatalf("put: %v", putErr)
	}

	// Repeated reads of one key from every node: the second read at each
	// node must come from its own cache, filled by the authoritative
	// reply to the first.
	for round := 0; round < 2; round++ {
		for i := range c.stores {
			var got []byte
			var err error
			c.stores[i].Get(key, func(v []byte, e error) { got, err = v, e })
			c.settle(12 * time.Second)
			if err != nil {
				t.Fatalf("round %d node %d: get: %v", round, i, err)
			}
			if string(got) != "v1" {
				t.Fatalf("round %d node %d: got %q", round, i, got)
			}
		}
	}
	if sum := sumCacheCounters(c); sum.CacheHitsLocal == 0 {
		t.Errorf("no local cache hits after repeat reads: %+v", sum)
	}

	// A write supersedes the cached version everywhere that matters:
	// fresh reads see it immediately, and once a sweep interval passes
	// every plain read does too (the staleness bound).
	c.stores[2].Put(key, []byte("v2"), func(err error) { putErr = err })
	c.settle(15 * time.Second)
	if putErr != nil {
		t.Fatalf("second put: %v", putErr)
	}
	var fresh []byte
	var freshErr error
	c.stores[9].get(key, true, func(v []byte, e error) { fresh, freshErr = v, e })
	c.settle(12 * time.Second)
	if freshErr != nil || string(fresh) != "v2" {
		t.Fatalf("fresh read after write: got %q err %v", fresh, freshErr)
	}
	c.settle(90 * time.Second) // > SweepInterval: every cached v1 is out of TTL
	for i := range c.stores {
		var got []byte
		var err error
		c.stores[i].Get(key, func(v []byte, e error) { got, err = v, e })
		c.settle(12 * time.Second)
		if err != nil || string(got) != "v2" {
			t.Fatalf("node %d read after sweep bound: got %q err %v", i, got, err)
		}
	}
}

// TestHotspotStaleCachedReplyRejected pins the monotonic read floor: a
// cached reply carrying a version below one this client already read is
// refused, counted, and the operation retried authoritatively.
func TestHotspotStaleCachedReplyRejected(t *testing.T) {
	c := newCluster(t, 12, 3, cachingConfig(60*time.Second))
	key := id.New(0xf100, 0x0d)
	reader := c.stores[5]

	var putErr error
	c.stores[1].Put(key, []byte("v1"), func(err error) { putErr = err })
	c.settle(15 * time.Second)
	c.stores[1].Put(key, []byte("v2"), func(err error) { putErr = err })
	c.settle(15 * time.Second)
	if putErr != nil {
		t.Fatalf("put: %v", putErr)
	}
	var warm []byte
	reader.Get(key, func(v []byte, e error) { warm = v })
	c.settle(12 * time.Second)
	if string(warm) != "v2" {
		t.Fatalf("warm read got %q", warm)
	}
	floor, ok := reader.hot.floors[key]
	if !ok || floor.version < 2 {
		t.Fatalf("read floor not raised: %+v ok=%v", floor, ok)
	}

	// Force the next read onto the network, then inject a cached reply
	// one version below the reader's floor before the real one arrives.
	reader.hot.cache.Delete(key)
	var got []byte
	var err error
	called := false
	reader.Get(key, func(v []byte, e error) { got, err, called = v, e, true })
	reqID := reader.nextReq
	op, live := reader.pending[reqID]
	if !live || op.kind != kindGet {
		t.Fatalf("no pending get op for reqID %d", reqID)
	}
	reader.onCachedReply(hotspot.Encode(&hotspot.CachedReply{ReqID: reqID, Found: true, FromCache: true,
		Version: floor.version - 1, Origin: floor.origin, Value: []byte("v1")}))
	if called {
		t.Fatal("stale cached reply completed the operation")
	}
	if n := reader.Counters().CacheStaleRejected; n != 1 {
		t.Fatalf("CacheStaleRejected = %d, want 1", n)
	}
	if !op.fresh {
		t.Fatal("rejected operation was not switched to a fresh (cache-bypassing) retry")
	}
	c.settle(12 * time.Second)
	if !called || err != nil || string(got) != "v2" {
		t.Fatalf("authoritative retry: called=%v got %q err %v", called, got, err)
	}
}

// TestHotspotPruneDepositState pins the per-peer state bound: the peer
// registry's eviction broadcast drops the evicted peer's deposit
// records, so a crash that ultimately evicts a peer takes its deposit
// state with it.
func TestHotspotPruneDepositState(t *testing.T) {
	c := newCluster(t, 12, 5, cachingConfig(60*time.Second))
	s := c.stores[3]
	peers := s.Node().Leaf().Left()
	if len(peers) == 0 {
		peers = s.Node().Leaf().Right()
	}
	if len(peers) == 0 {
		t.Fatal("no leaf-set peers")
	}
	real := peers[0]
	fake := pastry.NodeRef{ID: id.New(0xdead, 0xbeef), Addr: "10.99.99.99:1"}
	key1, key2 := id.New(1, 2), id.New(3, 4)
	s.hot.deposits[key1] = []pastry.NodeRef{real, fake}
	s.hot.deposits[key2] = []pastry.NodeRef{fake}
	s.hot.depositOrder = append(s.hot.depositOrder, key1, key2)

	s.Node().Peers().Expel(fake.ID, fake.Addr)
	if got := s.hot.deposits[key1]; len(got) != 1 || got[0].ID != real.ID {
		t.Fatalf("key1 targets after eviction broadcast: %v", got)
	}
	if _, stillThere := s.hot.deposits[key2]; stillThere {
		t.Fatal("key2 (only evicted targets) survived the eviction broadcast")
	}

	// Crash the real peer; once failure detection evicts it from this
	// node's routing state, its final registry eviction must drop its
	// deposit record too.
	for _, other := range c.stores {
		if other.Node().Ref().ID == real.ID {
			other.env.(*netmodel.Endpoint).Fail()
		}
	}
	deadline := c.sim.Now() + 5*time.Minute
	for c.sim.Now() < deadline &&
		(s.Node().Leaf().Contains(real.ID) || s.Node().Table().Contains(real.ID)) {
		c.settle(10 * time.Second)
	}
	if s.Node().Leaf().Contains(real.ID) || s.Node().Table().Contains(real.ID) {
		t.Fatal("crashed peer never left routing state")
	}
	s.Node().Peers().Expel(real.ID, real.Addr)
	if _, stillThere := s.hot.deposits[key1]; stillThere {
		t.Fatal("deposit record for crashed peer survived its eviction")
	}
}

// TestHotspotCacheAcrossPartitionHeal exercises the cache through a
// network partition: a cached copy keeps serving locally while its key's
// root is unreachable (inside the staleness bound), and after the heal a
// write propagates so fresh reads — and, past one sweep interval, all
// reads — see it.
func TestHotspotCacheAcrossPartitionHeal(t *testing.T) {
	sweep := 90 * time.Second
	c := newCluster(t, 12, 11, cachingConfig(sweep))
	key := id.New(0x9a57, 0x11)
	reader := c.stores[7]

	var putErr error
	c.stores[2].Put(key, []byte("v1"), func(err error) { putErr = err })
	c.settle(15 * time.Second)
	if putErr != nil {
		t.Fatalf("put: %v", putErr)
	}
	var warm []byte
	reader.Get(key, func(v []byte, e error) { warm = v })
	c.settle(12 * time.Second)
	if string(warm) != "v1" {
		t.Fatalf("warm read got %q", warm)
	}

	// Split the cluster down the middle for 30 seconds.
	sideA := make(map[string]bool)
	for i, s := range c.stores {
		if i < len(c.stores)/2 {
			sideA[s.Node().Ref().Addr] = true
		}
	}
	c.nw.Faults().At(c.sim.Now(), 30*time.Second, netmodel.Fault{Partition: func(addr string) bool { return sideA[addr] }})
	c.settle(5 * time.Second)

	// The reader's local copy is inside the TTL: the read is served from
	// cache without touching the (possibly unreachable) root.
	hitsBefore := reader.Counters().CacheHitsLocal
	var during []byte
	var duringErr error
	reader.Get(key, func(v []byte, e error) { during, duringErr = v, e })
	c.settle(5 * time.Second)
	if duringErr != nil || string(during) != "v1" {
		t.Fatalf("read during partition: got %q err %v", during, duringErr)
	}
	if reader.Counters().CacheHitsLocal != hitsBefore+1 {
		t.Fatalf("read during partition was not a local cache hit")
	}

	// Heal, write, and verify convergence: fresh reads see the new value
	// immediately, plain reads at the latest after one sweep interval.
	c.settle(60 * time.Second)
	c.stores[2].Put(key, []byte("v2"), func(err error) { putErr = err })
	c.settle(15 * time.Second)
	if putErr != nil {
		t.Fatalf("post-heal put: %v", putErr)
	}
	var fresh []byte
	var freshErr error
	reader.get(key, true, func(v []byte, e error) { fresh, freshErr = v, e })
	c.settle(12 * time.Second)
	if freshErr != nil || string(fresh) != "v2" {
		t.Fatalf("fresh read after heal: got %q err %v", fresh, freshErr)
	}
	c.settle(sweep + 30*time.Second)
	var got []byte
	var err error
	reader.Get(key, func(v []byte, e error) { got, err = v, e })
	c.settle(12 * time.Second)
	if err != nil || string(got) != "v2" {
		t.Fatalf("plain read past the staleness bound: got %q err %v", got, err)
	}
}
