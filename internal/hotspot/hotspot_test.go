package hotspot

import (
	"strings"
	"testing"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/store"
)

func key(i uint64) id.ID { return id.New(i, i*2654435761+1) }

func TestSketchCountsAndAges(t *testing.T) {
	s := NewSketch(64, 4)
	hot := key(1)
	for i := 0; i < 20; i++ {
		s.Add(hot)
	}
	if got := s.Estimate(hot); got < 20 {
		t.Fatalf("estimate for hot key = %d, want >= 20", got)
	}
	if got := s.Estimate(key(999)); got > 20 {
		t.Fatalf("cold key estimate = %d, should not exceed hot traffic", got)
	}
	// Drive past the aging sample size; the hot estimate must halve at
	// least once rather than grow without bound.
	for i := uint64(0); i < uint64(s.limit); i++ {
		s.Add(key(100 + i%50))
	}
	if got := s.Estimate(hot); got >= 20 {
		t.Fatalf("estimate after aging = %d, want < 20", got)
	}
	if occ := s.Occupancy(); occ <= 0 || occ > 1 {
		t.Fatalf("occupancy = %v, want in (0, 1]", occ)
	}
}

func TestSketchDeterministic(t *testing.T) {
	a, b := NewSketch(64, 4), NewSketch(64, 4)
	for i := uint64(0); i < 1000; i++ {
		k := key(i % 37)
		a.Add(k)
		b.Add(k)
	}
	for i := uint64(0); i < 37; i++ {
		if a.Estimate(key(i)) != b.Estimate(key(i)) {
			t.Fatalf("estimates diverged for key %d", i)
		}
	}
}

func TestCacheSegmentedLRU(t *testing.T) {
	c := New(Config{Capacity: 3, Shards: 1})
	for i := uint64(0); i < 3; i++ {
		c.Put(Entry{Key: key(i), Version: 1})
	}
	// Re-reference key 0: it moves to the protected segment and must
	// survive a stream of one-hit wonders that churn probation.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("key 0 missing after insert")
	}
	for i := uint64(10); i < 20; i++ {
		c.Put(Entry{Key: key(i), Version: 1})
	}
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("protected key 0 was evicted by probation churn")
	}
	if got := c.Len(); got != 3 {
		t.Fatalf("len = %d, want 3", got)
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Admitted == 0 {
		t.Fatalf("stats did not record churn: %+v", st)
	}
}

func TestCacheAdmissionFiltersOneHitWonders(t *testing.T) {
	c := New(Config{Capacity: 4, Shards: 1, Admission: true})
	hot := key(1)
	for i := 0; i < 10; i++ {
		c.Touch(hot)
	}
	c.Put(Entry{Key: hot, Version: 1})
	for i := uint64(100); i < 120; i++ {
		c.Put(Entry{Key: key(i), Version: 1})
	}
	if _, ok := c.Get(hot); !ok {
		t.Fatal("hot key evicted by cold scan despite admission filter")
	}
	if st := c.Stats(); st.Rejected == 0 {
		t.Fatalf("admission filter never rejected: %+v", st)
	}
	if c.Estimate(hot) == 0 {
		t.Fatal("estimate for touched key is zero")
	}
}

func TestCacheVersionSupersession(t *testing.T) {
	c := New(Config{Capacity: 8, Shards: 1})
	k := key(7)
	c.Put(Entry{Key: k, Version: 3, Origin: 9, Value: []byte("v3")})

	// An older deposit must not downgrade the cached version.
	c.Put(Entry{Key: k, Version: 2, Origin: 50, Value: []byte("v2")})
	if e, _ := c.Get(k); e.Version != 3 {
		t.Fatalf("cache downgraded to version %d", e.Version)
	}

	// Invalidation below or at the cached version is a no-op.
	if c.InvalidateUnder(k, 3, 9) {
		t.Fatal("invalidated by an equal version")
	}
	if c.InvalidateUnder(k, 2, 99) {
		t.Fatal("invalidated by an older version")
	}
	// Same version, higher origin wins (diverged-root tiebreak).
	if !c.InvalidateUnder(k, 3, 10) {
		t.Fatal("same-version higher-origin write did not invalidate")
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("entry still cached after supersession")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestCachePurgeOlderThan(t *testing.T) {
	c := New(Config{Capacity: 8, Shards: 2})
	for i := uint64(0); i < 6; i++ {
		c.Put(Entry{Key: key(i), Version: 1, StoredAt: time.Duration(i) * time.Second})
	}
	if got := c.PurgeOlderThan(3 * time.Second); got != 3 {
		t.Fatalf("purged %d entries, want 3", got)
	}
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("stale entry survived purge")
	}
	if _, ok := c.Get(key(4)); !ok {
		t.Fatal("fresh entry lost by purge")
	}
}

// TestCodecRejects covers what the recorded frames and the fuzz round
// trip do not: the rules a decoder holds a message's values to, and
// garbage.
func TestCodecRejects(t *testing.T) {
	dig := store.Object{Key: key(3), Version: 5, Value: []byte("x")}.Digest()
	vias := []Via{{ID: key(1), Addr: "10.0.0.1:9000"}, {ID: key(2), Addr: "10.0.0.2:9000"}, {ID: key(3)}}
	for name, frame := range map[string][]byte{
		"not-found reply with a value": Encode(&CachedReply{ReqID: 7, Value: []byte("x")}),
		"version-0 deposit":            Encode(&Entry{Key: key(4), Dig: dig}),
		"more than MaxVia hops":        Encode(&GetVia{1, vias}),
		"via address over the limit":   Encode(&GetVia{1, []Via{{ID: key(1), Addr: strings.Repeat("a", maxViaAddr+1)}}}),
		"trailing byte":                append(Encode(&Invalidate{key(1), 1, 1}), 0xaa),
		"truncated":                    Encode(&GetVia{ReqID: 1})[:2],
		"unknown reply flag":           {KindCachedReply, 0xff, 1},
		"bare kind":                    {KindGetVia},
		"short deposit":                {KindDeposit, 1, 2, 3},
		"short invalidate":             {KindInvalidate, 0},
		"empty":                        {},
	} {
		for kind, empty := range decoders {
			if Decode(frame, empty()) {
				t.Errorf("%s: accepted as kind %#x", name, kind)
			}
		}
	}
}
