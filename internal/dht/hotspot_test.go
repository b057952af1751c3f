package dht

import (
	"errors"
	"testing"
	"time"

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
	if !live || op.kind != kindGetVia {
		t.Fatalf("no pending get op for reqID %d", reqID)
	}
	reader.onCachedReply(encode(&cachedReply{reqID: reqID, found: true, fromCache: true,
		version: floor.version - 1, origin: floor.origin, value: []byte("v1")}))
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

// TestHotspotOwnWriteDropsCachedCopy pins that a caching client's own
// write supersedes the copy it cached: the root's invalidation reaches
// only its deposit targets, so without this the client would keep
// reading its old value for up to one sweep interval.
func TestHotspotOwnWriteDropsCachedCopy(t *testing.T) {
	c := newCluster(t, 12, 11, cachingConfig(60*time.Second))
	key, _ := c.keyRootedAt(t, 0)
	client := c.stores[1] // odd index: not the key's root
	write := func(op func(done func(error))) {
		t.Helper()
		err := errors.New("not called")
		op(func(e error) { err = e })
		c.settle(5 * time.Second)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	read := func(wantValue string, wantErr error) {
		t.Helper()
		var got []byte
		err := errors.New("not called")
		client.Get(key, func(v []byte, e error) { got, err = v, e })
		c.settle(5 * time.Second)
		if err != wantErr || string(got) != wantValue {
			t.Fatalf("read: got %q err %v, want %q err %v", got, err, wantValue, wantErr)
		}
	}
	write(func(done func(error)) { client.Put(key, []byte("v"), done) })
	read("v", nil)
	if _, cached := client.hot.cache.Get(key); !cached {
		t.Fatal("the authoritative read left no cached copy")
	}
	write(func(done func(error)) { client.Delete(key, done) })
	read("", ErrNotFound)
	write(func(done func(error)) { client.Put(key, []byte("w"), done) })
	read("w", nil)
}

// TestHotspotCacheHoldsItsCapacity pins that a store's cache holds as
// many keys as CacheEntries says, with no eviction before it is full.
func TestHotspotCacheHoldsItsCapacity(t *testing.T) {
	cfg := cachingConfig(60 * time.Second)
	cfg.CacheEntries = 16
	c := newCluster(t, 12, 9, cfg)
	writer, reader := c.stores[0], c.stores[5]
	var keys []id.ID
	for k := uint64(1); k <= 16; k++ {
		keys = append(keys, id.New(k*0x9e3779b97f4a7c15, k))
	}
	ok := 0
	for _, key := range keys {
		writer.Put(key, []byte("v"), func(err error) {
			if err == nil {
				ok++
			}
		})
	}
	c.settle(15 * time.Second)
	for _, key := range keys {
		reader.Get(key, func(v []byte, err error) {
			if err == nil {
				ok++
			}
		})
	}
	c.settle(15 * time.Second)
	if ok != 2*len(keys) {
		t.Fatalf("%d of %d operations succeeded", ok, 2*len(keys))
	}
	st := reader.CacheStats()
	if st.Entries != len(keys) || st.Evictions != 0 || st.Rejected != 0 {
		t.Fatalf("cache of %d after %d distinct reads: %+v", cfg.CacheEntries, len(keys), st)
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

// TestHotspotMixedCluster runs the one read protocol on a cluster where
// every other store caches. A cacheless client's reads are never answered
// from a cache and their root deposits nothing for them, a caching client
// reads through cacheless hops and from a cacheless root, and every
// operation completes once.
func TestHotspotMixedCluster(t *testing.T) {
	caching := cachingConfig(60 * time.Second)
	plain := caching
	plain.CacheEntries = 0
	c := newCluster(t, 96, 13, caching, plain) // enough nodes for routes of several hops
	hotKey, hotRoot := c.keyRootedAt(t, 0)     // at a caching store
	coldKey, _ := c.keyRootedAt(t, 1)          // at a cacheless one
	ops, done := 0, 0
	write := func(key id.ID, value string) {
		t.Helper()
		ops++
		var err error
		c.stores[3].Put(key, []byte(value), func(e error) { err, done = e, done+1 })
		c.settle(15 * time.Second)
		if err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	read := func(reader *Store, key id.ID, want string) {
		t.Helper()
		ops++
		var got []byte
		var err error
		reader.Get(key, func(v []byte, e error) { got, err, done = v, e, done+1 })
		c.settle(12 * time.Second)
		if err != nil || string(got) != want {
			t.Fatalf("read: got %q err %v, want %q", got, err, want)
		}
	}
	write(hotKey, "hot")
	write(coldKey, "cold")

	// Caching clients make hotKey hot, so its root deposits it on the
	// hops of their routes. Each forgets its own copy first, so that every
	// read leaves the node.
	for round := 0; round < 3; round++ {
		for i := 0; i < len(c.stores); i += 2 {
			c.stores[i].hot.cache.Delete(hotKey)
			read(c.stores[i], hotKey, "hot")
		}
	}
	warm := sumCacheCounters(c)
	if warm.CacheDeposits == 0 {
		t.Fatal("caching reads of a hot key deposited nothing")
	}
	popularity := hotRoot.hot.cache.Estimate(hotKey)
	for round := 0; round < 3; round++ {
		for i := 1; i < len(c.stores); i += 2 {
			read(c.stores[i], hotKey, "hot")
		}
	}
	if got := sumCacheCounters(c); got.CacheServes != warm.CacheServes || got.CacheDeposits != warm.CacheDeposits {
		t.Errorf("cacheless reads moved cache serves %d → %d and deposits %d → %d",
			warm.CacheServes, got.CacheServes, warm.CacheDeposits, got.CacheDeposits)
	}
	if got := hotRoot.hot.cache.Estimate(hotKey); got != popularity {
		t.Errorf("the root counted cacheless reads: popularity %d → %d", popularity, got)
	}

	// A caching client's authoritative read from a cacheless root fills
	// its own cache, which answers the next read.
	reader := c.stores[0]
	hits := reader.Counters().CacheHitsLocal
	read(reader, coldKey, "cold")
	read(reader, coldKey, "cold")
	if reader.Counters().CacheHitsLocal != hits+1 {
		t.Errorf("a read from a cacheless root did not fill the caching client's cache")
	}

	c.settle(2 * time.Minute)
	if done != ops {
		t.Errorf("%d of %d operations completed", done, ops)
	}
	for i, s := range c.stores {
		if len(s.pending) != 0 {
			t.Errorf("store %d has %d operations pending", i, len(s.pending))
		}
	}
}

// keyRootedAt returns a key whose root is a store with an index of the
// given parity, and that store.
func (c *simCluster) keyRootedAt(t *testing.T, parity int) (id.ID, *Store) {
	t.Helper()
	for k := uint64(1); k < 1000; k++ {
		key := id.New(k*0x9e3779b97f4a7c15, k)
		root := 0
		for i, s := range c.stores {
			if id.CloserToKey(key, s.Node().Ref().ID, c.stores[root].Node().Ref().ID) {
				root = i
			}
		}
		if root%2 == parity {
			return key, c.stores[root]
		}
	}
	t.Fatalf("no key rooted at a store of parity %d", parity)
	return id.ID{}, nil
}
