package peer

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"mspastry/internal/id"
)

func testID(b byte) id.ID {
	return id.New(uint64(b)<<56, 0)
}

func member(ids ...id.ID) func(id.ID) bool {
	set := make(map[id.ID]bool, len(ids))
	for _, x := range ids {
		set[x] = true
	}
	return func(x id.ID) bool { return set[x] }
}

func TestStrangerShortExpiry(t *testing.T) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: time.Hour})
	stranger, mem := testID(1), testID(2)
	r.Obtain(stranger, "s", 0)
	r.Obtain(mem, "m", 0)

	isMember := member(mem)
	if n := r.Sweep(30*time.Second, isMember); n != 0 {
		t.Fatalf("evicted %d before TTL", n)
	}
	if r.Len() != 2 {
		t.Fatalf("len=%d, want 2", r.Len())
	}
	if n := r.Sweep(time.Minute, isMember); n != 1 {
		t.Fatalf("evicted %d at TTL, want 1 (the stranger)", n)
	}
	if r.Lookup(stranger) != nil {
		t.Fatal("stranger record survived")
	}
	if rec := r.Lookup(mem); rec == nil || !rec.Admitted() {
		t.Fatal("member should survive, admitted")
	}
	st := r.Stats()
	if st.EvictedStrangers != 1 || st.EvictedAdmitted != 0 {
		t.Fatalf("stats %+v: want 1 stranger eviction", st)
	}
}

func TestAdmittedLongTTLAndTouchRefresh(t *testing.T) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: 10 * time.Minute})
	x := testID(3)
	r.Obtain(x, "a", 0)
	r.Sweep(0, member(x)) // admits
	none := member()
	if n := r.Sweep(9*time.Minute, none); n != 0 {
		t.Fatal("admitted record evicted before AdmittedTTL")
	}
	r.Lookup(x).Touch(9 * time.Minute)
	if n := r.Sweep(10*time.Minute, none); n != 0 {
		t.Fatal("touch did not refresh the idle clock")
	}
	if n := r.Sweep(19*time.Minute, none); n != 1 {
		t.Fatal("admitted record not evicted after AdmittedTTL idle")
	}
}

func TestPrunableSlotBlocksEviction(t *testing.T) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: time.Hour})
	type supp struct{ at time.Duration }
	horizon := 2 * time.Minute
	slot := r.NewSlot("suppress", func(_ id.ID, v any, now time.Duration, _ bool) any {
		if s := v.(*supp); now-s.at > horizon {
			return nil
		}
		return v
	})
	x := testID(4)
	rec := r.Obtain(x, "a", 0)
	r.Put(rec, slot, &supp{at: 0})
	none := member()
	// Past StrangerTTL but within the slot horizon: the slot vetoes.
	if n := r.Sweep(90*time.Second, none); n != 0 {
		t.Fatal("record evicted while prunable slot held state")
	}
	if r.SlotCount(slot) != 1 {
		t.Fatal("slot count should be 1")
	}
	// Past the horizon: slot drains, record follows in the same sweep.
	if n := r.Sweep(3*time.Minute, none); n != 1 {
		t.Fatal("record not evicted after slot drained")
	}
	if r.SlotCount(slot) != 0 {
		t.Fatal("slot count should be 0 after drain")
	}
	if st := r.Stats(); len(st.Slots) != 1 || st.Slots[0].Dropped != 1 {
		t.Fatalf("slot stats %+v: want one drop", st.Slots)
	}
}

func TestRetainedSlotNeverBlocks(t *testing.T) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: time.Hour})
	slot := r.NewRetainedSlot("rtt")
	x := testID(5)
	rec := r.Obtain(x, "a", 0)
	r.Put(rec, slot, "estimator")
	if n := r.Sweep(time.Minute, member()); n != 1 {
		t.Fatal("retained slot must not delay eviction")
	}
	if r.SlotCount(slot) != 0 {
		t.Fatal("retained slot count not released at eviction")
	}
}

func TestEvictionBroadcastSortedByID(t *testing.T) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: time.Hour})
	var got []id.ID
	r.OnEvict(func(x id.ID, addr string) { got = append(got, x) })
	// Insert in descending order; broadcast must come back ascending.
	for b := byte(9); b >= 1; b-- {
		r.Obtain(testID(b), "a", 0)
	}
	if n := r.Sweep(time.Minute, member()); n != 9 {
		t.Fatalf("evicted %d, want 9", n)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Cmp(got[i]) >= 0 {
			t.Fatalf("broadcast out of order at %d: %v", i, got)
		}
	}
}

func TestExpelBroadcastsOnceAndDooms(t *testing.T) {
	r := New(Config{StrangerTTL: time.Hour, AdmittedTTL: time.Hour})
	evictions := 0
	r.OnEvict(func(x id.ID, addr string) {
		evictions++
		if addr != "a" {
			t.Fatalf("addr %q, want record's address", addr)
		}
	})
	x := testID(6)
	r.Obtain(x, "a", 0)
	r.Sweep(0, member(x)) // admit
	r.Expel(x, "")
	if evictions != 1 {
		t.Fatal("Expel must broadcast immediately")
	}
	// Doomed: deleted at the next sweep without TTL wait, no re-broadcast.
	if n := r.Sweep(time.Second, member()); n != 1 {
		t.Fatal("doomed record not collected")
	}
	if evictions != 1 {
		t.Fatal("doomed collection must not re-broadcast")
	}
}

func TestReadmissionLiftsDoom(t *testing.T) {
	r := New(Config{StrangerTTL: time.Hour, AdmittedTTL: time.Hour})
	x := testID(7)
	r.Obtain(x, "a", 0)
	r.Expel(x, "")
	// The peer comes back before the next sweep: membership lifts the doom.
	if n := r.Sweep(time.Second, member(x)); n != 0 {
		t.Fatal("readmitted peer evicted")
	}
	if rec := r.Lookup(x); rec == nil || !rec.Admitted() {
		t.Fatal("readmitted peer should be live and admitted")
	}
}

func TestExpelWithoutRecordIsSafe(t *testing.T) {
	r := New(Config{})
	called := false
	r.OnEvict(func(x id.ID, addr string) { called = true })
	r.Expel(testID(8), "addr")
	if !called {
		t.Fatal("Expel must still notify subscribers")
	}
}

// A record holds its slot table inline, so a peer's whole state is one
// object: Obtain of a new peer allocates its record, and filling every
// slot, prunable or retained, allocates nothing more. A sweep with
// nothing to evict — nearly every sweep — allocates nothing, and one that
// evicts reuses the registry's eviction list.
func TestRegistryAllocations(t *testing.T) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: time.Hour})
	var slots []Slot
	for _, name := range []string{"a", "b", "c", "d"} {
		slots = append(slots, r.NewSlot(name, func(_ id.ID, v any, _ time.Duration, _ bool) any { return v }))
	}
	slots = append(slots, r.NewRetainedSlot("e"))
	v := &struct{ int }{1}
	// The peers are inserted once and evicted before the pin, so the
	// pinned Obtains find the map already grown.
	const runs = 100
	ids := make([]id.ID, runs+1) // AllocsPerRun calls once to warm up
	for i := range ids {
		ids[i] = id.New(uint64(i)+1, 0)
		r.Obtain(ids[i], "a", 0)
	}
	none := member()
	if n := r.Sweep(time.Minute, none); n != len(ids) {
		t.Fatalf("evicted %d, want %d", n, len(ids))
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		rec := r.Obtain(ids[next], "a", time.Minute)
		next++
		for i := len(slots) - 1; i >= 0; i-- { // the last slot first
			r.Put(rec, slots[i], v)
		}
	}); got != 1 {
		t.Errorf("Obtain and a Put into every slot: %v allocs, want 1 (the record)", got)
	}
	for _, s := range slots {
		if r.SlotCount(s) != len(ids) {
			t.Fatalf("slot count %d, want %d", r.SlotCount(s), len(ids))
		}
	}

	isMember := member(ids[0])
	if got := testing.AllocsPerRun(100, func() { r.Sweep(time.Minute, isMember) }); got != 0 {
		t.Errorf("sweep that evicts nothing: %v allocs, want 0", got)
	}

	for _, x := range ids {
		for _, s := range slots {
			r.Put(r.Lookup(x), s, nil)
		}
	}
	if n := r.Sweep(2*time.Hour, none); n != len(ids) {
		t.Fatalf("evicted %d, want %d", n, len(ids))
	}
	next = 0
	if got := testing.AllocsPerRun(runs, func() {
		r.Obtain(ids[next], "a", 2*time.Hour)
		next++
		r.Sweep(2*time.Hour+time.Minute, none)
	}); got != 1 {
		t.Errorf("a peer observed and evicted: %v allocs, want 1 (the record)", got)
	}
	if r.Len() != 0 {
		t.Fatalf("%d records survived their sweep", r.Len())
	}
	for _, rec := range r.evict[:cap(r.evict)] {
		if rec != nil {
			t.Fatal("the eviction list holds a record after its sweep")
		}
	}
}

// TestSlotTableIsFixed: a record's inline table has room for maxSlots
// slots, and registering one more is a programming error.
func TestSlotTableIsFixed(t *testing.T) {
	r := New(Config{})
	for i := 0; i < maxSlots; i++ {
		r.NewRetainedSlot(fmt.Sprint(i))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a slot past the table's size was registered")
		}
	}()
	r.NewRetainedSlot("one too many")
}

// TestRecordSize pins a record's size, because a record is the one object
// a peer costs and the allocator rounds it up to a size class. At 216 B
// (the liveness timestamps, the inline State of 56 B, the slot table of
// 80 B) it sits in the 224-B class with 8 B to spare; before the State
// moved inline it was 160 B, exactly one class. A field that changes the
// size fails here, so a record that crosses into a larger class is a
// decision, not an accident.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 216 {
		t.Errorf("peer.Record is %d B, want 216 (malloc size class 224 B)", got)
	}
}

// BenchmarkRegistryAdmitEvict is the CI lifecycle smoke: observe,
// admit, slot-fill, expire and evict a rolling peer population.
func BenchmarkRegistryAdmitEvict(b *testing.B) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: 5 * time.Minute})
	slot := r.NewSlot("bench", func(_ id.ID, v any, now time.Duration, m bool) any {
		if !m {
			return nil
		}
		return v
	})
	rtt := r.NewRetainedSlot("rtt")
	rng := rand.New(rand.NewSource(1))
	ids := make([]id.ID, 256)
	for i := range ids {
		ids[i] = id.Random(rng)
	}
	now := time.Duration(0)
	memberSet := func(x id.ID) bool { return x.Lo&1 == 0 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := ids[i%len(ids)]
		now += time.Second
		rec := r.Obtain(x, "addr", now)
		rec.LastRecv = now
		if rec.Get(slot) == nil {
			r.Put(rec, slot, &struct{}{})
		}
		if rec.Get(rtt) == nil {
			r.Put(rec, rtt, &struct{}{})
		}
		if i%len(ids) == 0 {
			r.Sweep(now, memberSet)
		}
	}
}
