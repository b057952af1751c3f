package pastry

import (
	"time"

	"mspastry/internal/id"
)

// RoutingTable is Pastry's prefix-routing matrix: row r, column c holds a
// node whose identifier shares the first r digits with the local node and
// has digit c in position r. Entries carry the measured round-trip delay
// when known, so proximity neighbour selection can keep the closest
// candidate per slot. A row is allocated on its first write (a table fills
// a few of its NumDigits(b) rows), and a missing row reads as empty.
type RoutingTable struct {
	self  id.ID
	b     int
	rows  [][]rtEntry
	count int
}

type rtEntry struct {
	ref NodeRef
	rtt time.Duration
	// asked is when passive repair last asked about the slot, in whole
	// seconds plus one; 0 means not since the slot was last filled or
	// emptied, each of which rewrites the entry. Four bytes fit the
	// entry's padding.
	asked  uint32
	hasRTT bool
	used   bool
}

// NewRoutingTable creates an empty routing table for the given local id and
// digit width b.
func NewRoutingTable(self id.ID, b int) *RoutingTable {
	return &RoutingTable{self: self, b: b, rows: make([][]rtEntry, id.NumDigits(b))}
}

// entry returns the entry at (row, col), empty if the row was never written.
func (rt *RoutingTable) entry(row, col int) rtEntry {
	if r := rt.rows[row]; r != nil {
		return r[col]
	}
	return rtEntry{}
}

// slot returns the entry at (row, col) for writing, making its row if missing.
func (rt *RoutingTable) slot(row, col int) *rtEntry {
	if rt.rows[row] == nil {
		rt.rows[row] = make([]rtEntry, 1<<rt.b)
	}
	return &rt.rows[row][col]
}

// Slot returns the (row, column) a node occupies in this table, or ok=false
// for the local node itself.
func (rt *RoutingTable) Slot(x id.ID) (row, col int, ok bool) {
	r := id.CommonPrefixLen(rt.self, x, rt.b)
	if r >= len(rt.rows) {
		return 0, 0, false
	}
	return r, x.Digit(r, rt.b), true
}

// Get returns the entry at (row, col) if present.
func (rt *RoutingTable) Get(row, col int) (NodeRef, bool) {
	e := rt.entry(row, col)
	return e.ref, e.used
}

// Contains reports whether x occupies its slot in the table.
func (rt *RoutingTable) Contains(x id.ID) bool {
	row, col, ok := rt.Slot(x)
	if !ok {
		return false
	}
	e := rt.entry(row, col)
	return e.used && e.ref.ID == x
}

// RTT returns the measured round-trip delay for a node in the table.
func (rt *RoutingTable) RTT(x id.ID) (time.Duration, bool) {
	row, col, ok := rt.Slot(x)
	if !ok {
		return 0, false
	}
	e := rt.entry(row, col)
	if !e.used || e.ref.ID != x || !e.hasRTT {
		return 0, false
	}
	return e.rtt, true
}

// Add inserts a node with unknown distance. It only fills an empty slot
// (proximity neighbour selection never evicts a measured entry for an
// unmeasured one) and reports whether the table changed.
func (rt *RoutingTable) Add(ref NodeRef) bool {
	if ref.IsZero() || ref.ID == rt.self {
		return false
	}
	row, col, ok := rt.Slot(ref.ID)
	if !ok {
		return false
	}
	e := rt.slot(row, col)
	if e.used {
		return false
	}
	*e = rtEntry{ref: ref, used: true}
	rt.count++
	return true
}

// AddWithRTT inserts a node with a measured round-trip delay, replacing the
// current occupant if the new node is strictly closer (or the occupant's
// distance is unknown). Reports whether the table changed.
func (rt *RoutingTable) AddWithRTT(ref NodeRef, rtt time.Duration) bool {
	if ref.IsZero() || ref.ID == rt.self {
		return false
	}
	row, col, ok := rt.Slot(ref.ID)
	if !ok {
		return false
	}
	e := rt.slot(row, col)
	switch {
	case !e.used:
		rt.count++
	case e.ref.ID == ref.ID:
		e.rtt, e.hasRTT = rtt, true
		return false
	case e.hasRTT && e.rtt <= rtt:
		return false
	}
	*e = rtEntry{ref: ref, rtt: rtt, hasRTT: true, used: true}
	return true
}

// Remove deletes x from the table if present.
func (rt *RoutingTable) Remove(x id.ID) bool {
	row, col, ok := rt.Slot(x)
	if !ok {
		return false
	}
	if e := rt.entry(row, col); !e.used || e.ref.ID != x {
		return false
	}
	rt.rows[row][col] = rtEntry{}
	rt.count--
	return true
}

// askRepair reports whether passive repair should ask about slot (row, col)
// at now, at most once per period, and remembers that it did.
func (rt *RoutingTable) askRepair(row, col int, now, period time.Duration) bool {
	e := rt.slot(row, col)
	if e.asked != 0 && now-time.Duration(e.asked-1)*time.Second < period {
		return false
	}
	e.asked = uint32(now/time.Second) + 1
	return true
}

// Row returns the non-empty entries of row r.
func (rt *RoutingTable) Row(r int) []NodeRef {
	if r < 0 || r >= len(rt.rows) {
		return nil
	}
	var out []NodeRef
	for _, e := range rt.rows[r] {
		if e.used {
			out = append(out, e.ref)
		}
	}
	return out
}

// B returns the digit width in bits.
func (rt *RoutingTable) B() int { return rt.b }

// NumRows returns the number of rows (identifier digits).
func (rt *RoutingTable) NumRows() int { return len(rt.rows) }

// Count returns the number of occupied slots.
func (rt *RoutingTable) Count() int { return rt.count }

// Entries returns every node in the table, as a fresh slice the caller may
// keep (messages carry it).
func (rt *RoutingTable) Entries() []NodeRef {
	out := make([]NodeRef, 0, rt.count)
	rt.each(func(e NodeRef) { out = append(out, e) })
	return out
}

// each visits every node in the table in row-major order, without the
// copy Entries makes: the maintenance path walks the table on every tick
// and every repair probe. fn must not modify the table.
func (rt *RoutingTable) each(fn func(NodeRef)) {
	for _, row := range rt.rows {
		for i := range row {
			if row[i].used {
				fn(row[i].ref)
			}
		}
	}
}

// RowsUpTo returns all entries in rows 0..maxRow inclusive, used when
// answering join requests (a node on the join route contributes the rows
// that match the joiner's prefix).
func (rt *RoutingTable) RowsUpTo(maxRow int) []NodeRef {
	if maxRow >= len(rt.rows) {
		maxRow = len(rt.rows) - 1
	}
	var out []NodeRef
	for r := 0; r <= maxRow; r++ {
		for _, e := range rt.rows[r] {
			if e.used {
				out = append(out, e.ref)
			}
		}
	}
	return out
}

// BestForKey returns the routing-table entry for the next hop of key k: the
// slot (r, c) where r is the shared prefix length of k and the local id and
// c is k's r-th digit. ok is false when that slot is empty or excluded.
func (rt *RoutingTable) BestForKey(k id.ID, excluded func(id.ID) bool) (NodeRef, bool) {
	r := id.CommonPrefixLen(rt.self, k, rt.b)
	if r >= len(rt.rows) {
		return NodeRef{}, false
	}
	e := rt.entry(r, k.Digit(r, rt.b))
	if !e.used {
		return NodeRef{}, false
	}
	if excluded != nil && excluded(e.ref.ID) {
		return NodeRef{}, false
	}
	return e.ref, true
}

// AnyCloser scans the table for any node that is strictly closer to k than
// the local node and shares a prefix with k of at least length r — the
// fault-tolerant fallback of Pastry's route function.
func (rt *RoutingTable) AnyCloser(k id.ID, r int, excluded func(id.ID) bool) (NodeRef, bool) {
	for row := len(rt.rows) - 1; row >= 0; row-- {
		for _, e := range rt.rows[row] {
			if !e.used {
				continue
			}
			if excluded != nil && excluded(e.ref.ID) {
				continue
			}
			if id.CommonPrefixLen(k, e.ref.ID, rt.b) >= r && id.CloserToKey(k, e.ref.ID, rt.self) {
				return e.ref, true
			}
		}
	}
	return NodeRef{}, false
}
