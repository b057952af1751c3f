package hotspot

import (
	"bytes"
	"testing"
	"time"

	"mspastry/internal/codec"
	"mspastry/internal/codec/codectest"
	"mspastry/internal/id"
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
	c := New(Config{Capacity: 3})
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
	c := New(Config{Capacity: 4, Admission: true})
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
	c := New(Config{Capacity: 8})
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
	c := New(Config{Capacity: 8})
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

// encodeEntry and decodeEntry run Entry.Walk as the dht's encode and
// decode run it, without the deposit's kind byte.
func encodeEntry(e Entry) []byte {
	var c codec.Coder
	e.Walk(&c)
	c = codec.Appender(make([]byte, 0, c.Size()))
	e.Walk(&c)
	return c.Bytes()
}

func decodeEntry(b []byte) (e Entry, ok bool) {
	c := codec.Reader(b)
	e.Walk(&c)
	return e, c.Finish() == nil
}

// TestRecordedFrames pins the wire bytes of an entry to the bodies of the
// deposit frames recorded from the hand-written codec this package used
// to have, and checks that each recorded frame decodes to what was
// encoded.
func TestRecordedFrames(t *testing.T) {
	k := id.New(0x1122334455667788, 0x99aabbccddeeff00)
	for name, e := range map[string]Entry{
		"entry":          {Key: k, Version: 3, Origin: 2, Value: []byte("vv")},
		"entry-empty":    {Key: k, Version: 128},
		"entry-extremes": {Key: id.Max, Version: ^uint64(0), Origin: ^uint64(0), Value: []byte("x")},
	} {
		frame := codectest.WantFrame(t, name, encodeEntry(e))
		got, ok := decodeEntry(frame)
		if !ok || got.Key != e.Key || got.Version != e.Version || got.Origin != e.Origin || !bytes.Equal(got.Value, e.Value) {
			t.Errorf("%s: recorded frame decodes (ok=%v) to %+v", name, ok, got)
		}
	}
}

// TestCodecRejects covers the rules a decoder holds an entry to: a
// version the root assigned, and a whole key and version vector.
func TestCodecRejects(t *testing.T) {
	for name, frame := range map[string][]byte{
		"version 0":         encodeEntry(Entry{Key: key(4), Value: []byte("x")}),
		"short key":         {1, 2, 3},
		"no origin":         append(key(4).Bytes(), 1),
		"truncated version": append(key(4).Bytes(), 0x80),
		"empty":             {},
	} {
		if e, ok := decodeEntry(frame); ok {
			t.Errorf("%s: accepted as %+v", name, e)
		}
	}
}

// TestCodecAllocations pins what walking an entry costs: an encode
// allocates its output only, and a decode nothing, since the value
// aliases the frame.
func TestCodecAllocations(t *testing.T) {
	e := Entry{Key: key(5), Version: 9, Origin: 2, Value: make([]byte, 1024)}
	frame := encodeEntry(e)
	for name, pin := range map[string]struct {
		want float64
		f    func()
	}{
		"encode": {1, func() { encodeEntry(e) }},
		"decode": {0, func() { decodeEntry(frame) }},
	} {
		if got := testing.AllocsPerRun(100, pin.f); got != pin.want {
			t.Errorf("%s: %v allocs, want %v", name, got, pin.want)
		}
	}
}
