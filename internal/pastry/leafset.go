package pastry

import (
	"mspastry/internal/id"
)

// LeafSet holds the l/2 closest nodes on each side of the local node in
// identifier space. The two sides are maintained independently; in overlays
// with fewer than l nodes the sides overlap (the set "wraps" around the
// ring), which is how a node detects that it knows the entire ring.
//
// Leaf sets are the basis of MSPastry's consistency guarantee, so callers
// must respect the insertion discipline from the paper: a node is only
// added after a message was received directly from it (or during join
// initialisation, before the local node is active).
type LeafSet struct {
	self id.ID
	half int
	// left is sorted by counter-clockwise distance from self (closest
	// first); right is sorted by clockwise distance (closest first).
	left, right []NodeRef
	// members caches the deduplicated union of both sides. Routing
	// fallback, delivery guards, probing and the dht sweeps all enumerate
	// the membership far more often than it changes, so the union is
	// rebuilt lazily after a mutation instead of on every read. nil means
	// stale; rebuilds always allocate a fresh slice so previously returned
	// snapshots stay immutable.
	members []NodeRef
}

// NewLeafSet creates an empty leaf set for a node with the given id and
// total size l (l/2 per side).
func NewLeafSet(self id.ID, l int) *LeafSet {
	return &LeafSet{self: self, half: l / 2}
}

// Half returns the per-side capacity l/2.
func (ls *LeafSet) Half() int { return ls.half }

// Add inserts a node into whichever sides it belongs to and reports whether
// the leaf set changed. Adding self is a no-op.
func (ls *LeafSet) Add(ref NodeRef) bool {
	if ref.ID == ls.self || ref.IsZero() {
		return false
	}
	changed := insertSorted(&ls.right, ref, ls.half, func(a, b NodeRef) bool {
		return ls.self.Clockwise(a.ID).Cmp(ls.self.Clockwise(b.ID)) < 0
	})
	if insertSorted(&ls.left, ref, ls.half, func(a, b NodeRef) bool {
		return a.ID.Clockwise(ls.self).Cmp(b.ID.Clockwise(ls.self)) < 0
	}) {
		changed = true
	}
	if changed {
		ls.members = nil
	}
	return changed
}

func insertSorted(side *[]NodeRef, ref NodeRef, capn int, less func(a, b NodeRef) bool) bool {
	s := *side
	for _, e := range s {
		if e.ID == ref.ID {
			return false
		}
	}
	pos := len(s)
	for i, e := range s {
		if less(ref, e) {
			pos = i
			break
		}
	}
	if pos >= capn {
		return false
	}
	s = append(s, NodeRef{})
	copy(s[pos+1:], s[pos:])
	s[pos] = ref
	if len(s) > capn {
		s = s[:capn]
	}
	*side = s
	return true
}

// Remove deletes a node from both sides and reports whether it was present.
func (ls *LeafSet) Remove(x id.ID) bool {
	removed := removeID(&ls.left, x)
	if removeID(&ls.right, x) {
		removed = true
	}
	if removed {
		ls.members = nil
	}
	return removed
}

func removeID(side *[]NodeRef, x id.ID) bool {
	s := *side
	for i, e := range s {
		if e.ID == x {
			*side = append(s[:i], s[i+1:]...)
			return true
		}
	}
	return false
}

// Contains reports whether x is in the leaf set.
func (ls *LeafSet) Contains(x id.ID) bool {
	for _, e := range ls.left {
		if e.ID == x {
			return true
		}
	}
	for _, e := range ls.right {
		if e.ID == x {
			return true
		}
	}
	return false
}

// Left returns the left side, closest neighbour first. The returned slice
// must not be modified.
func (ls *LeafSet) Left() []NodeRef { return ls.left }

// Right returns the right side, closest neighbour first. The returned
// slice must not be modified.
func (ls *LeafSet) Right() []NodeRef { return ls.right }

// LeftNeighbour returns the closest node on the left, if any.
func (ls *LeafSet) LeftNeighbour() (NodeRef, bool) { return at(ls.left, 0) }

// RightNeighbour returns the closest node on the right, if any.
func (ls *LeafSet) RightNeighbour() (NodeRef, bool) { return at(ls.right, 0) }

// Leftmost returns the farthest node on the left side, if any.
func (ls *LeafSet) Leftmost() (NodeRef, bool) { return at(ls.left, len(ls.left)-1) }

// Rightmost returns the farthest node on the right side, if any.
func (ls *LeafSet) Rightmost() (NodeRef, bool) { return at(ls.right, len(ls.right)-1) }

// at returns side[i], if side has one.
func at(side []NodeRef, i int) (NodeRef, bool) {
	if i < 0 || i >= len(side) {
		return NodeRef{}, false
	}
	return side[i], true
}

// Empty reports whether both sides are empty (a singleton overlay).
func (ls *LeafSet) Empty() bool { return len(ls.left) == 0 && len(ls.right) == 0 }

// Wrapped reports whether the two sides overlap, meaning the leaf set
// covers the entire ring (the overlay has at most l+1 nodes).
func (ls *LeafSet) Wrapped() bool {
	if len(ls.left) == 0 || len(ls.right) == 0 {
		return false
	}
	farLeft := ls.left[len(ls.left)-1].ID
	for _, e := range ls.right {
		if e.ID == farLeft {
			return true
		}
	}
	farRight := ls.right[len(ls.right)-1].ID
	for _, e := range ls.left {
		if e.ID == farRight {
			return true
		}
	}
	return false
}

// Complete reports whether the leaf set is complete: both sides full, or
// the set wraps around the whole ring. A node only becomes active once its
// leaf set is complete and all members acknowledged it (paper, Figure 2).
func (ls *LeafSet) Complete() bool {
	if len(ls.left) == ls.half && len(ls.right) == ls.half {
		return true
	}
	return ls.Wrapped()
}

// InRange reports whether key k falls inside the identifier arc covered by
// the leaf set (from the leftmost member clockwise to the rightmost). With
// an empty leaf set every key is in range (singleton ring).
func (ls *LeafSet) InRange(k id.ID) bool {
	if ls.Empty() || ls.Wrapped() {
		return true
	}
	lm, okL := ls.Leftmost()
	rm, okR := ls.Rightmost()
	if !okL || !okR {
		// One side empty: treat the local node as the missing bound.
		if !okL {
			return id.Between(ls.self, rm.ID, k)
		}
		return id.Between(lm.ID, ls.self, k)
	}
	return id.Between(lm.ID, rm.ID, k)
}

// Closest returns the leaf-set member (or the local node) whose identifier
// is closest to k. The boolean is false when the result is the local node.
func (ls *LeafSet) Closest(k id.ID, excluded func(id.ID) bool) (NodeRef, bool) {
	best := NodeRef{ID: ls.self}
	found := false
	consider := func(ref NodeRef) {
		if excluded != nil && excluded(ref.ID) {
			return
		}
		if id.CloserToKey(k, ref.ID, best.ID) {
			best = ref
			found = true
		}
	}
	for _, e := range ls.left {
		consider(e)
	}
	for _, e := range ls.right {
		consider(e)
	}
	if !found {
		return NodeRef{ID: ls.self}, false
	}
	// The local node may still be the closest overall.
	if id.CloserToKey(k, ls.self, best.ID) || ls.self == best.ID {
		return NodeRef{ID: ls.self}, false
	}
	return best, true
}

// Members returns all distinct leaf-set members, left side first. The
// returned slice is a shared snapshot: callers must not modify it, and its
// capacity is clipped so appending to it cannot either.
func (ls *LeafSet) Members() []NodeRef {
	if ls.members == nil {
		out := make([]NodeRef, 0, len(ls.left)+len(ls.right))
		out = append(out, ls.left...)
		// Both sides are small (≤ l/2 each), so a linear dedup scan beats
		// a map allocation.
	rightSide:
		for _, e := range ls.right {
			for _, l := range ls.left {
				if l.ID == e.ID {
					continue rightSide
				}
			}
			out = append(out, e)
		}
		ls.members = out[:len(out):len(out)]
	}
	return ls.members
}

// Size returns the number of distinct members.
func (ls *LeafSet) Size() int { return len(ls.Members()) }

// SpanFraction returns the fraction of the identifier ring covered by the
// leaf set (from leftmost to rightmost through self). Used to estimate the
// overlay size N from leaf-set density. A wrapped leaf set covers the
// whole ring, so its fraction is 1 (making the density estimate equal to
// the member count, which is then the true overlay size).
func (ls *LeafSet) SpanFraction() float64 {
	lm, okL := ls.Leftmost()
	rm, okR := ls.Rightmost()
	if !okL || !okR {
		return 0
	}
	if ls.Wrapped() {
		return 1
	}
	span := lm.ID.Clockwise(rm.ID)
	return idToFloat(span) / idRingSize
}

const idRingSize = 3.402823669209385e38 // 2^128

func idToFloat(x id.ID) float64 {
	return float64(x.Hi)*18446744073709551616.0 + float64(x.Lo)
}
