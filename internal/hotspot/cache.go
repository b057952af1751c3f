package hotspot

import (
	"container/list"
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
	// Capacity bounds the entry count.
	Capacity int
	// Admission enables TinyLFU frequency admission: a full cache only
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

// Cache is a size-bounded cache of versioned entries with segmented-LRU
// eviction (probation + protected segments, as in SLRU) and optional
// TinyLFU admission backed by the count-min Sketch. It has no lock: its
// owner calls it from one goroutine, the node's event loop.
type Cache struct {
	cap       int
	protCap   int
	items     map[id.ID]*list.Element
	probation *list.List // new arrivals; the eviction victim is its back
	protected *list.List // re-referenced entries
	sketch    *Sketch

	hits, misses, admitted, rejected, evictions, invalidations, purged uint64
}

type slot struct {
	entry     Entry
	protected bool
}

// New builds a cache from cfg, clamping its capacity to at least 1.
func New(cfg Config) *Cache {
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	c := &Cache{
		cap:       cfg.Capacity,
		protCap:   cfg.Capacity * 4 / 5, // < cap: a full cache has a probation victim
		items:     make(map[id.ID]*list.Element),
		probation: list.New(),
		protected: list.New(),
	}
	if cfg.Admission {
		c.sketch = NewSketch(cfg.Capacity, 4)
	}
	return c
}

// Touch records one observation of key in the popularity sketch without
// touching the cache proper. No-op when admission is disabled.
func (c *Cache) Touch(key id.ID) {
	if c.sketch != nil {
		c.sketch.Add(key)
	}
}

// Estimate returns the popularity sketch's estimate for key (0 when
// admission is disabled).
func (c *Cache) Estimate(key id.ID) uint32 {
	if c.sketch == nil {
		return 0
	}
	return c.sketch.Estimate(key)
}

// Get returns the cached entry for key, promoting it into the
// protected segment. Staleness (TTL) is the caller's concern.
func (c *Cache) Get(key id.ID) (Entry, bool) {
	c.Touch(key)
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return Entry{}, false
	}
	c.hits++
	c.promote(el)
	return el.Value.(*slot).entry, true
}

// promote moves a hit entry to the protected segment's front, demoting
// the protected LRU back to probation if the segment overflows.
func (c *Cache) promote(el *list.Element) {
	s := el.Value.(*slot)
	if s.protected {
		c.protected.MoveToFront(el)
		return
	}
	c.probation.Remove(el)
	s.protected = true
	c.items[s.entry.Key] = c.protected.PushFront(s)
	for c.protected.Len() > c.protCap {
		back := c.protected.Back()
		bs := back.Value.(*slot)
		c.protected.Remove(back)
		bs.protected = false
		c.items[bs.entry.Key] = c.probation.PushFront(bs)
	}
}

// Put inserts or refreshes an entry and reports whether it resides in
// the cache afterwards. An existing strictly-newer version is never
// downgraded; a full cache consults the admission sketch (when enabled)
// before evicting its victim.
func (c *Cache) Put(e Entry) bool {
	c.Touch(e.Key)
	if el, ok := c.items[e.Key]; ok {
		s := el.Value.(*slot)
		if Newer(s.entry.Version, s.entry.Origin, e.Version, e.Origin) {
			return true // cached copy already supersedes the incoming one
		}
		s.entry = e
		if s.protected {
			c.protected.MoveToFront(el)
		} else {
			c.probation.MoveToFront(el)
		}
		return true
	}
	if len(c.items) >= c.cap {
		victim := c.probation.Back()
		vs := victim.Value.(*slot)
		if c.sketch != nil && c.sketch.Estimate(e.Key) <= c.sketch.Estimate(vs.entry.Key) {
			c.rejected++
			return false
		}
		c.remove(victim)
		c.evictions++
	}
	c.items[e.Key] = c.probation.PushFront(&slot{entry: e})
	c.admitted++
	return true
}

// InvalidateUnder removes the cached entry for key if version vector
// (version, origin) strictly supersedes it, reporting whether an entry
// was dropped.
func (c *Cache) InvalidateUnder(key id.ID, version, origin uint64) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	s := el.Value.(*slot)
	if !Newer(version, origin, s.entry.Version, s.entry.Origin) {
		return false
	}
	c.remove(el)
	c.invalidations++
	return true
}

// Delete unconditionally removes key's entry.
func (c *Cache) Delete(key id.ID) {
	if el, ok := c.items[key]; ok {
		c.remove(el)
	}
}

func (c *Cache) remove(el *list.Element) {
	s := el.Value.(*slot)
	if s.protected {
		c.protected.Remove(el)
	} else {
		c.probation.Remove(el)
	}
	delete(c.items, s.entry.Key)
}

// PurgeOlderThan drops every entry stored before cutoff and returns the
// number purged. This is the anti-entropy backstop: run once per sweep
// interval, no cached entry can outlive one interval.
func (c *Cache) PurgeOlderThan(cutoff time.Duration) int {
	n := 0
	for _, el := range c.items {
		if el.Value.(*slot).entry.StoredAt < cutoff {
			c.remove(el)
			n++
		}
	}
	c.purged += uint64(n)
	return n
}

// Len returns the current entry count.
func (c *Cache) Len() int { return len(c.items) }

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits: c.hits, Misses: c.misses, Admitted: c.admitted, Rejected: c.rejected,
		Evictions: c.evictions, Invalidations: c.invalidations, Purged: c.purged,
		Entries: len(c.items), Capacity: c.cap,
	}
	if st.Hits+st.Misses > 0 {
		st.HitRatio = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	if c.sketch != nil {
		st.SketchOccupancy = c.sketch.Occupancy()
	}
	return st
}
