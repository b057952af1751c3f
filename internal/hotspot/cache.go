package hotspot

import (
	"container/list"
	"sync"
	"time"

	"mspastry/internal/codec"
	"mspastry/internal/id"
)

// Entry is one cached versioned read: the value plus the version vector
// (Version, Origin) the key's root assigned, so invalidation by
// supersession and anti-entropy purging can reason about freshness
// without re-fetching.
type Entry struct {
	Key     id.ID
	Version uint64
	Origin  uint64
	Value   []byte
	// StoredAt is the (simulated or wall) time the entry was cached,
	// expressed as a duration since process start. Callers enforce any
	// TTL; the cache only uses it for PurgeOlderThan.
	StoredAt time.Duration
}

// Walk is the entry's wire description, the body of the dht's deposit:
//
//	key(16) | version uvarint | origin uvarint | value...
//
// The value runs to the end of the buffer. An entry is a root-assigned
// write, so version ≥ 1. StoredAt is local and not carried.
func (e *Entry) Walk(c *codec.Coder) {
	c.ID(&e.Key)
	c.Uvarint(&e.Version)
	c.Require(e.Version != 0)
	c.Uvarint(&e.Origin)
	c.Rest(&e.Value)
}

// Newer reports whether version vector (v, o) strictly supersedes
// (ev, eo), using the same version-then-origin total order as
// store.Object.Supersedes.
func Newer(v, o, ev, eo uint64) bool {
	if v != ev {
		return v > ev
	}
	return o > eo
}

// Config shapes a Cache.
type Config struct {
	// Capacity bounds the total entry count across all shards.
	Capacity int
	// Shards is the number of independently locked segments (rounded up
	// to a power of two, minimum 1).
	Shards int
	// Admission enables TinyLFU frequency admission: a full shard only
	// evicts its victim when the incoming key's sketch estimate exceeds
	// the victim's. When false the cache is a plain segmented LRU.
	Admission bool
}

// Stats is a point-in-time snapshot of cache effectiveness counters. Each
// field's metric and help tags name and describe the gauge a live node
// exports it as (telemetry.Registry.SetGauges).
type Stats struct {
	Hits          uint64 `metric:"mspastry_hotspot_cache_hits" help:"Hotspot cache lookup hits."`
	Misses        uint64 `metric:"mspastry_hotspot_cache_misses" help:"Hotspot cache lookup misses."`
	Admitted      uint64 `metric:"mspastry_hotspot_cache_admitted" help:"Entries admitted by the TinyLFU filter."`
	Rejected      uint64 `metric:"mspastry_hotspot_cache_rejected" help:"Entries rejected by the TinyLFU filter."`
	Evictions     uint64 `metric:"mspastry_hotspot_cache_evictions" help:"Entries evicted by segmented-LRU pressure."`
	Invalidations uint64 `metric:"mspastry_hotspot_cache_invalidations" help:"Entries dropped by version supersession."`
	Purged        uint64 `metric:"mspastry_hotspot_cache_purged_total" help:"Entries dropped by the sweep staleness backstop."`
	Entries       int    `metric:"mspastry_hotspot_cache_entries" help:"Entries currently in the hotspot cache."`
	Capacity      int    `metric:"mspastry_hotspot_cache_capacity" help:"Configured hotspot cache capacity."`
	// HitRatio is Hits / (Hits + Misses), or 0 with no traffic.
	HitRatio float64 `metric:"mspastry_hotspot_cache_hit_ratio" help:"Hotspot cache hit ratio (hits over hits plus misses)."`
	// SketchOccupancy is the popularity sketch's non-zero fraction
	// (zero when admission is disabled).
	SketchOccupancy float64 `metric:"mspastry_hotspot_sketch_occupancy" help:"Fraction of non-zero popularity sketch counters."`
}

// Cache is a sharded, size-bounded cache of versioned entries with
// segmented-LRU eviction (probation + protected segments, as in SLRU)
// and optional TinyLFU admission backed by the count-min Sketch.
type Cache struct {
	shards    []*shard
	shardMask uint64
	capacity  int

	mu     sync.Mutex // guards sketch
	sketch *Sketch
}

type shard struct {
	mu        sync.Mutex
	cap       int
	protCap   int
	items     map[id.ID]*list.Element
	probation *list.List // new arrivals; victims come from here first
	protected *list.List // re-referenced entries

	hits, misses, admitted, rejected, evictions, invalidations, purged uint64
}

type slot struct {
	entry     Entry
	protected bool
}

// New builds a cache from cfg, normalizing degenerate values (capacity
// and shard count are clamped to at least 1).
func New(cfg Config) *Cache {
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	ns := 1
	for ns < cfg.Shards {
		ns <<= 1
	}
	c := &Cache{shardMask: uint64(ns - 1), capacity: cfg.Capacity}
	if cfg.Admission {
		c.sketch = NewSketch(cfg.Capacity, 4)
	}
	per := (cfg.Capacity + ns - 1) / ns
	for i := 0; i < ns; i++ {
		protCap := per * 4 / 5
		if protCap >= per {
			protCap = per - 1
		}
		c.shards = append(c.shards, &shard{
			cap:       per,
			protCap:   protCap,
			items:     make(map[id.ID]*list.Element),
			probation: list.New(),
			protected: list.New(),
		})
	}
	return c
}

func (c *Cache) shardFor(key id.ID) *shard {
	return c.shards[mix(key.Hi^key.Lo)&c.shardMask]
}

// Touch records one observation of key in the popularity sketch without
// touching the cache proper. No-op when admission is disabled.
func (c *Cache) Touch(key id.ID) {
	if c.sketch == nil {
		return
	}
	c.mu.Lock()
	c.sketch.Add(key)
	c.mu.Unlock()
}

// Estimate returns the popularity sketch's estimate for key (0 when
// admission is disabled).
func (c *Cache) Estimate(key id.ID) uint32 {
	if c.sketch == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sketch.Estimate(key)
}

// Get returns the cached entry for key, promoting it into the
// protected segment. Staleness (TTL) is the caller's concern.
func (c *Cache) Get(key id.ID) (Entry, bool) {
	c.Touch(key)
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		sh.misses++
		return Entry{}, false
	}
	sh.hits++
	sh.promote(el)
	return el.Value.(*slot).entry, true
}

// promote moves a hit entry to the protected segment's front, demoting
// the protected LRU back to probation if the segment overflows.
func (sh *shard) promote(el *list.Element) {
	s := el.Value.(*slot)
	if s.protected {
		sh.protected.MoveToFront(el)
		return
	}
	sh.probation.Remove(el)
	s.protected = true
	sh.items[s.entry.Key] = sh.protected.PushFront(s)
	for sh.protected.Len() > sh.protCap {
		back := sh.protected.Back()
		bs := back.Value.(*slot)
		sh.protected.Remove(back)
		bs.protected = false
		sh.items[bs.entry.Key] = sh.probation.PushFront(bs)
	}
}

// Put inserts or refreshes an entry and reports whether it resides in
// the cache afterwards. An existing strictly-newer version is never
// downgraded; a full shard consults the admission sketch (when enabled)
// before evicting its victim.
func (c *Cache) Put(e Entry) bool {
	if c.sketch != nil {
		c.mu.Lock()
		c.sketch.Add(e.Key)
		c.mu.Unlock()
	}
	sh := c.shardFor(e.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[e.Key]; ok {
		s := el.Value.(*slot)
		if Newer(s.entry.Version, s.entry.Origin, e.Version, e.Origin) {
			return true // cached copy already supersedes the incoming one
		}
		s.entry = e
		if s.protected {
			sh.protected.MoveToFront(el)
		} else {
			sh.probation.MoveToFront(el)
		}
		return true
	}
	if sh.probation.Len()+sh.protected.Len() >= sh.cap {
		victim := sh.probation.Back()
		fromProbation := victim != nil
		if victim == nil {
			victim = sh.protected.Back()
		}
		if victim == nil {
			return false
		}
		vs := victim.Value.(*slot)
		if c.sketch != nil {
			c.mu.Lock()
			keep := c.sketch.Estimate(e.Key) <= c.sketch.Estimate(vs.entry.Key)
			c.mu.Unlock()
			if keep {
				sh.rejected++
				return false
			}
		}
		if fromProbation {
			sh.probation.Remove(victim)
		} else {
			sh.protected.Remove(victim)
		}
		delete(sh.items, vs.entry.Key)
		sh.evictions++
	}
	sh.items[e.Key] = sh.probation.PushFront(&slot{entry: e})
	sh.admitted++
	return true
}

// InvalidateUnder removes the cached entry for key if version vector
// (version, origin) strictly supersedes it, reporting whether an entry
// was dropped.
func (c *Cache) InvalidateUnder(key id.ID, version, origin uint64) bool {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		return false
	}
	s := el.Value.(*slot)
	if !Newer(version, origin, s.entry.Version, s.entry.Origin) {
		return false
	}
	sh.remove(el)
	sh.invalidations++
	return true
}

// Delete unconditionally removes key's entry.
func (c *Cache) Delete(key id.ID) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		sh.remove(el)
	}
}

func (sh *shard) remove(el *list.Element) {
	s := el.Value.(*slot)
	if s.protected {
		sh.protected.Remove(el)
	} else {
		sh.probation.Remove(el)
	}
	delete(sh.items, s.entry.Key)
}

// PurgeOlderThan drops every entry stored before cutoff and returns the
// number purged. This is the anti-entropy backstop: run once per sweep
// interval, no cached entry can outlive one interval.
func (c *Cache) PurgeOlderThan(cutoff time.Duration) int {
	total := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		var stale []*list.Element
		for _, el := range sh.items {
			if el.Value.(*slot).entry.StoredAt < cutoff {
				stale = append(stale, el)
			}
		}
		for _, el := range stale {
			sh.remove(el)
		}
		sh.purged += uint64(len(stale))
		total += len(stale)
		sh.mu.Unlock()
	}
	return total
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Stats aggregates counters across shards.
func (c *Cache) Stats() Stats {
	st := Stats{Capacity: c.capacity}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Admitted += sh.admitted
		st.Rejected += sh.rejected
		st.Evictions += sh.evictions
		st.Invalidations += sh.invalidations
		st.Purged += sh.purged
		st.Entries += len(sh.items)
		sh.mu.Unlock()
	}
	if st.Hits+st.Misses > 0 {
		st.HitRatio = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	if c.sketch != nil {
		c.mu.Lock()
		st.SketchOccupancy = c.sketch.Occupancy()
		c.mu.Unlock()
	}
	return st
}
