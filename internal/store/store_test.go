package store

import (
	"bytes"
	"math/rand"
	"testing"

	"mspastry/internal/id"
)

func obj(hi, lo uint64, ver, origin uint64, val string) Object {
	return Object{Key: id.New(hi, lo), Version: ver, Origin: origin, Value: []byte(val)}
}

func TestObjectCodecRoundTrip(t *testing.T) {
	cases := []Object{
		obj(1, 2, 1, 7, "hello"),
		obj(0, 0, 3, 0, ""),
		{Key: id.New(9, 9), Version: 5, Origin: 42, Tombstone: true},
		obj(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), "x"),
	}
	for _, want := range cases {
		got, ok := DecodeObject(EncodeObject(nil, want))
		if !ok {
			t.Fatalf("decode failed for %+v", want)
		}
		if got.Key != want.Key || got.Version != want.Version ||
			got.Origin != want.Origin || got.Tombstone != want.Tombstone ||
			!bytes.Equal(got.Value, want.Value) {
			t.Fatalf("roundtrip: got %+v want %+v", got, want)
		}
	}
	// Garbage rejection.
	for _, bad := range [][]byte{nil, {0}, {0xff, 1, 2}, make([]byte, 18)} {
		if _, ok := DecodeObject(bad); ok {
			t.Fatalf("accepted garbage %v", bad)
		}
	}
	// Version 0 is reserved.
	zero := EncodeObject(nil, Object{Key: id.New(1, 1), Version: 0})
	if _, ok := DecodeObject(zero); ok {
		t.Fatal("accepted version-0 object")
	}
}

func TestSupersedesTotalOrder(t *testing.T) {
	a := obj(1, 1, 2, 5, "a")
	b := obj(1, 1, 1, 9, "b")
	if !a.Supersedes(b) || b.Supersedes(a) {
		t.Fatal("higher version must win regardless of origin")
	}
	c, d := obj(1, 1, 3, 5, "c"), obj(1, 1, 3, 6, "d")
	if !d.Supersedes(c) || c.Supersedes(d) {
		t.Fatal("equal version: higher origin must win")
	}
	// Same version and origin, different bytes: exactly one side wins.
	e, f := obj(1, 1, 3, 5, "e"), obj(1, 1, 3, 5, "f")
	if e.Supersedes(f) == f.Supersedes(e) {
		t.Fatal("content tiebreak must pick exactly one winner")
	}
	// Identical objects: neither supersedes (Apply is idempotent).
	if a.Supersedes(a) {
		t.Fatal("object supersedes itself")
	}
	// Summary ordering agrees with the object ordering.
	if !d.Summarize().Supersedes(c) || c.Summarize().Supersedes(d) {
		t.Fatal("summary order disagrees with object order")
	}
}

// TestMemoryApplyMerge runs one sequence of writes through both backends,
// which must apply the same version rule.
func TestMemoryApplyMerge(t *testing.T) {
	for _, backend := range []struct {
		name string
		open func(t *testing.T) Backend
	}{
		{"memory", func(*testing.T) Backend { return NewMemory() }},
		{"disk", func(t *testing.T) Backend { return mustOpen(t, t.TempDir(), DiskOptions{}) }},
	} {
		t.Run(backend.name, func(t *testing.T) {
			m := backend.open(t)
			defer m.Close()
			v1 := obj(1, 1, 1, 5, "one")
			if applied, _ := m.Apply(v1); !applied {
				t.Fatal("first write not applied")
			}
			// Stale write ignored.
			if applied, _ := m.Apply(obj(1, 1, 1, 4, "stale")); applied {
				t.Fatal("stale write applied")
			}
			if got, _ := m.Get(id.New(1, 1)); string(got.Value) != "one" {
				t.Fatalf("value = %q", got.Value)
			}
			// Newer write replaces.
			if applied, _ := m.Apply(obj(1, 1, 2, 5, "two")); !applied {
				t.Fatal("newer write not applied")
			}
			if m.Len() != 1 {
				t.Fatalf("len = %d", m.Len())
			}
			// Tombstone hides the key from Len but stays retrievable.
			tomb := Object{Key: id.New(1, 1), Version: 3, Origin: 5, Tombstone: true}
			if applied, _ := m.Apply(tomb); !applied {
				t.Fatal("tombstone not applied")
			}
			if m.Len() != 0 || m.Stats().Tombstones != 1 {
				t.Fatalf("after tombstone: len=%d stats=%+v", m.Len(), m.Stats())
			}
			if got, ok := m.Get(id.New(1, 1)); !ok || !got.Tombstone {
				t.Fatal("tombstone not retrievable")
			}
			// A stale value cannot resurrect the deleted key.
			if applied, _ := m.Apply(obj(1, 1, 2, 9, "zombie")); applied {
				t.Fatal("stale write resurrected a tombstone")
			}
			// Drop removes entirely.
			if err := m.Drop(id.New(1, 1)); err != nil {
				t.Fatal(err)
			}
			if _, ok := m.Get(id.New(1, 1)); ok || m.Len() != 0 || m.Stats().Tombstones != 0 {
				t.Fatal("drop left state behind")
			}
		})
	}
}

func TestRangeDigestDetectsDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := NewMemory(), NewMemory()
	var keys []id.ID
	for i := 0; i < 200; i++ {
		o := Object{Key: id.Random(rng), Version: 1, Origin: 7, Value: []byte{byte(i)}}
		keys = append(keys, o.Key)
		a.Apply(o)
		b.Apply(o)
	}
	lo, hi, _ := MinimalArc(keys)
	da := SummarizeRange(a, lo, hi)
	db := SummarizeRange(b, lo, hi)
	if da.Root() != db.Root() {
		t.Fatal("identical state, divergent roots")
	}
	if diff := da.DiffBuckets(&db); len(diff) != 0 {
		t.Fatalf("identical state, %d divergent buckets", len(diff))
	}
	// Mutate one key on b: root and exactly that key's bucket diverge.
	mutated := keys[17]
	b.Apply(Object{Key: mutated, Version: 2, Origin: 7, Value: []byte("new")})
	db = SummarizeRange(b, lo, hi)
	if da.Root() == db.Root() {
		t.Fatal("divergent state, equal roots")
	}
	diff := da.DiffBuckets(&db)
	if len(diff) != 1 || diff[0] != BucketOf(mutated) {
		t.Fatalf("diff buckets = %v, want [%d]", diff, BucketOf(mutated))
	}
	// Keys outside the arc are invisible to the digest.
	outside := SummarizeRange(a, mutated, mutated)
	count := 0
	for i := range outside.Buckets {
		if outside.Buckets[i] != (Digest{}) {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("single-key arc digested %d buckets", count)
	}
}

func TestMinimalArc(t *testing.T) {
	if _, _, ok := MinimalArc(nil); ok {
		t.Fatal("empty set produced an arc")
	}
	one := id.New(5, 5)
	if lo, hi, ok := MinimalArc([]id.ID{one}); !ok || lo != one || hi != one {
		t.Fatal("singleton arc wrong")
	}
	// A cluster of nearby keys: the arc must span them and stay tight.
	keys := []id.ID{id.New(100, 0), id.New(101, 0), id.New(103, 0)}
	lo, hi, _ := MinimalArc(keys)
	if lo != id.New(100, 0) || hi != id.New(103, 0) {
		t.Fatalf("arc = [%s, %s]", lo, hi)
	}
	// A cluster straddling zero must wrap, not span almost the full ring.
	wrap := []id.ID{id.New(^uint64(0), 5), id.New(0, 3), id.New(1, 0)}
	lo, hi, _ = MinimalArc(wrap)
	if lo != id.New(^uint64(0), 5) || hi != id.New(1, 0) {
		t.Fatalf("wrapping arc = [%s, %s]", lo, hi)
	}
	for _, k := range wrap {
		if !id.InRangeCW(lo, hi, k) {
			t.Fatalf("key %s outside its arc", k)
		}
	}
}
