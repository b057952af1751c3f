package pastry

import (
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/id"
)

func TestRoutingTableSlot(t *testing.T) {
	self := id.New(0x0123456789abcdef, 0)
	rt := NewRoutingTable(self, 4)
	// A node differing in the first digit lands in row 0, col = its first
	// digit.
	other := id.New(0x5123456789abcdef, 0)
	row, col, ok := rt.Slot(other)
	if !ok || row != 0 || col != 5 {
		t.Fatalf("slot = (%d,%d,%v), want (0,5,true)", row, col, ok)
	}
	// Same first 3 digits, differs at digit 3 (value 0xf).
	o2 := id.New(0x012f456789abcdef, 0)
	row, col, ok = rt.Slot(o2)
	if !ok || row != 3 || col != 0xf {
		t.Fatalf("slot = (%d,%d,%v), want (3,15,true)", row, col, ok)
	}
	if _, _, ok := rt.Slot(self); ok {
		t.Fatal("self must not have a slot")
	}
}

func TestRoutingTableAddOnlyFillsEmpty(t *testing.T) {
	self := id.New(0, 0)
	rt := NewRoutingTable(self, 4)
	a := refID(id.New(0x1000000000000000, 1))
	b := refID(id.New(0x1000000000000000, 2)) // same slot as a (row 0, col 1)
	if !rt.Add(a) {
		t.Fatal("add into empty slot failed")
	}
	if rt.Add(b) {
		t.Fatal("unmeasured add must not evict an occupant")
	}
	if !rt.Contains(a.ID) || rt.Contains(b.ID) {
		t.Fatal("wrong occupant after adds")
	}
	if rt.Count() != 1 {
		t.Fatalf("count = %d, want 1", rt.Count())
	}
}

func TestRoutingTablePNSReplacement(t *testing.T) {
	self := id.New(0, 0)
	rt := NewRoutingTable(self, 4)
	a := refID(id.New(0x2000000000000000, 1))
	b := refID(id.New(0x2000000000000000, 2))
	rt.AddWithRTT(a, 50*time.Millisecond)
	// Farther candidate must not replace.
	if rt.AddWithRTT(b, 80*time.Millisecond) {
		t.Fatal("farther candidate replaced occupant")
	}
	// Closer candidate must replace.
	if !rt.AddWithRTT(b, 20*time.Millisecond) {
		t.Fatal("closer candidate did not replace")
	}
	if !rt.Contains(b.ID) {
		t.Fatal("table should now hold b")
	}
	got, ok := rt.RTT(b.ID)
	if !ok || got != 20*time.Millisecond {
		t.Fatalf("rtt = %v/%v", got, ok)
	}
	// Measured entry replaces an unmeasured occupant.
	c := refID(id.New(0x3000000000000000, 1))
	d := refID(id.New(0x3000000000000000, 2))
	rt.Add(c)
	if !rt.AddWithRTT(d, time.Second) {
		t.Fatal("measured candidate should replace unmeasured occupant")
	}
}

func TestRoutingTableUpdateSameNodeRTT(t *testing.T) {
	rt := NewRoutingTable(id.New(0, 0), 4)
	a := refID(id.New(0x4000000000000000, 1))
	rt.AddWithRTT(a, 50*time.Millisecond)
	if rt.AddWithRTT(a, 30*time.Millisecond) {
		t.Fatal("re-measuring same node should not report a change")
	}
	got, _ := rt.RTT(a.ID)
	if got != 30*time.Millisecond {
		t.Fatalf("rtt not updated: %v", got)
	}
}

func TestRoutingTableRemove(t *testing.T) {
	rt := NewRoutingTable(id.New(0, 0), 4)
	a := refID(id.New(0x5000000000000000, 1))
	rt.Add(a)
	if !rt.Remove(a.ID) {
		t.Fatal("remove failed")
	}
	if rt.Contains(a.ID) || rt.Count() != 0 {
		t.Fatal("entry still present after remove")
	}
	if rt.Remove(a.ID) {
		t.Fatal("double remove reported true")
	}
	// Removing a node that hashes to an occupied slot but is not the
	// occupant must not clear the slot.
	b := refID(id.New(0x5000000000000000, 2))
	rt.Add(a)
	if rt.Remove(b.ID) {
		t.Fatal("removed wrong node")
	}
	if !rt.Contains(a.ID) {
		t.Fatal("occupant lost")
	}
}

func TestRoutingTableBestForKey(t *testing.T) {
	self := id.New(0, 0) // all digits 0
	rt := NewRoutingTable(self, 4)
	// Key starting with digit 7: slot (0,7).
	key := id.New(0x7abc000000000000, 99)
	hop := refID(id.New(0x7111000000000000, 1))
	rt.Add(hop)
	got, ok := rt.BestForKey(key, nil)
	if !ok || got.ID != hop.ID {
		t.Fatalf("BestForKey = %v/%v, want %v", got, ok, hop.ID)
	}
	// Excluded: not returned.
	_, ok = rt.BestForKey(key, func(x id.ID) bool { return x == hop.ID })
	if ok {
		t.Fatal("excluded entry returned")
	}
	// Empty slot: not found.
	_, ok = rt.BestForKey(id.New(0x8000000000000000, 0), nil)
	if ok {
		t.Fatal("empty slot returned an entry")
	}
}

func TestRoutingTableAnyCloser(t *testing.T) {
	self := id.New(0, 0)
	rt := NewRoutingTable(self, 4)
	key := id.New(0x7abc000000000000, 0)
	// Candidate shares 1 digit with key (7...) and is much closer to it
	// than self.
	cand := refID(id.New(0x7a00000000000000, 5))
	rt.Add(cand)
	got, ok := rt.AnyCloser(key, 0, nil)
	if !ok || got.ID != cand.ID {
		t.Fatalf("AnyCloser = %v/%v", got, ok)
	}
	// Require longer prefix than the candidate has: no match.
	if _, ok := rt.AnyCloser(key, 3, nil); ok {
		t.Fatal("AnyCloser ignored the prefix constraint")
	}
}

func TestRoutingTableRowsAndEntries(t *testing.T) {
	self := id.New(0, 0)
	rt := NewRoutingTable(self, 4)
	refs := []NodeRef{
		refID(id.New(0x1000000000000000, 0)),
		refID(id.New(0x2000000000000000, 0)),
		refID(id.New(0x0100000000000000, 0)), // row 1
		refID(id.New(0x0010000000000000, 0)), // row 2
	}
	for _, r := range refs {
		rt.Add(r)
	}
	if got := len(rt.Row(0)); got != 2 {
		t.Fatalf("row 0 size = %d, want 2", got)
	}
	if got := len(rt.Row(1)); got != 1 {
		t.Fatalf("row 1 size = %d, want 1", got)
	}
	if got := len(rt.Entries()); got != 4 {
		t.Fatalf("entries = %d, want 4", got)
	}
	if got := len(rt.RowsUpTo(1)); got != 3 {
		t.Fatalf("RowsUpTo(1) = %d, want 3", got)
	}
	if got := len(rt.RowsUpTo(999)); got != 4 {
		t.Fatalf("RowsUpTo(big) = %d, want 4", got)
	}
}

func TestRoutingTableRandomisedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	self := id.Random(rng)
	rt := NewRoutingTable(self, 4)
	inTable := map[id.ID]bool{}
	for step := 0; step < 3000; step++ {
		if rng.Intn(4) > 0 {
			ref := refID(id.Random(rng))
			rtt := time.Duration(rng.Intn(200)) * time.Millisecond
			rt.AddWithRTT(ref, rtt)
		} else if len(inTable) > 0 {
			for x := range inTable {
				rt.Remove(x)
				break
			}
		}
		inTable = map[id.ID]bool{}
		count := 0
		for _, e := range rt.Entries() {
			inTable[e.ID] = true
			count++
			row, col, ok := rt.Slot(e.ID)
			if !ok {
				t.Fatal("entry without slot")
			}
			occ, used := rt.Get(row, col)
			if !used || occ.ID != e.ID {
				t.Fatal("entry not in its own slot")
			}
			if got := id.CommonPrefixLen(self, e.ID, 4); got != row {
				t.Fatalf("entry in row %d but prefix %d", row, got)
			}
			if e.ID.Digit(row, 4) != col {
				t.Fatal("entry in wrong column")
			}
		}
		if count != rt.Count() {
			t.Fatalf("Count=%d but %d entries", rt.Count(), count)
		}
	}
}

// TestRoutingTableAskRepair: a slot, empty or not, is asked about once per
// period; filling it, replacing its occupant or removing it clears that.
func TestRoutingTableAskRepair(t *testing.T) {
	rt := NewRoutingTable(id.New(0, 0), 4)
	a := refID(id.New(0x1000000000000000, 1)) // row 0, col 1
	b := refID(id.New(0x1000000000000000, 2)) // a's slot
	for _, step := range []struct {
		now   time.Duration
		want  bool
		write func()
	}{
		{time.Second, true, nil},
		{time.Minute, false, nil},
		{61 * time.Second, true, nil},
		{62 * time.Second, true, func() { rt.Add(a) }},
		{63 * time.Second, false, func() { rt.AddWithRTT(a, 5*time.Millisecond) }},
		{64 * time.Second, true, func() { rt.AddWithRTT(b, time.Millisecond) }},
		{65 * time.Second, true, func() { rt.Remove(b.ID) }},
	} {
		if step.write != nil {
			step.write()
		}
		if got := rt.askRepair(0, 1, step.now, time.Minute); got != step.want {
			t.Fatalf("at %v: ask = %v, want %v", step.now, got, step.want)
		}
	}
	if _, used := rt.Get(0, 1); used || rt.Count() != 0 {
		t.Fatal("the repair mark reads as an entry")
	}
}

// rtSink keeps the tables TestRoutingTableAllocations makes on the heap.
var rtSink *RoutingTable

// TestRoutingTableAllocations: a table is two objects, its header and its
// row index, and a row is one more on its first write. After that the
// table's methods allocate nothing, on rows written or never written.
func TestRoutingTableAllocations(t *testing.T) {
	self := id.New(0, 0)
	if got := testing.AllocsPerRun(100, func() { rtSink = NewRoutingTable(self, 4) }); got != 2 {
		t.Errorf("NewRoutingTable: %v allocs, want 2", got)
	}
	a := refID(id.New(0x1000000000000000, 1)) // row 0, col 1
	b := refID(id.New(0x1000000000000000, 2)) // a's slot
	absent := id.New(0x00000f0000000000, 0)   // row 5, never written
	tables := make([]*RoutingTable, 101)      // AllocsPerRun runs once to warm up
	for i := range tables {
		tables[i] = NewRoutingTable(self, 4)
	}
	for name, write := range map[string]func(*RoutingTable){
		"Add":         func(rt *RoutingTable) { rt.Add(a) },
		"repair mark": func(rt *RoutingTable) { rt.askRepair(3, 15, time.Second, time.Minute) },
	} {
		next := 0
		if got := testing.AllocsPerRun(len(tables)-1, func() {
			write(tables[next])
			next++
		}); got != 1 {
			t.Errorf("a row's first write by %s: %v allocs, want 1", name, got)
		}
	}
	rt := tables[0]
	if got := testing.AllocsPerRun(100, func() {
		rt.Add(a)
		rt.AddWithRTT(b, time.Millisecond)
		rt.AddWithRTT(a, time.Microsecond)
		rt.Remove(a.ID)
		rt.Remove(absent)
		rt.Get(0, 1)
		rt.Get(5, 15)
		rt.BestForKey(a.ID, nil)
		rt.BestForKey(absent, nil)
		rt.AnyCloser(absent, 0, nil)
	}); got != 0 {
		t.Errorf("methods on a written table: %v allocs, want 0", got)
	}
}

func BenchmarkRoutingTableBestForKey(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	self := id.Random(rng)
	rt := NewRoutingTable(self, 4)
	for i := 0; i < 5000; i++ {
		rt.AddWithRTT(refID(id.Random(rng)), time.Duration(rng.Intn(100))*time.Millisecond)
	}
	keys := make([]id.ID, 1024)
	for i := range keys {
		keys[i] = id.Random(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.BestForKey(keys[i%len(keys)], nil)
	}
}
