// Package hotspot provides popularity-aware read caching for hot keys:
// a count-min sketch popularity estimator and a size-bounded cache with
// TinyLFU-style frequency admission and segmented-LRU eviction. The dht's path caching and squirrel's proxy caches share it;
// the path-caching messages are the dht's, with a cached Entry as the
// body of its deposit.
//
// Everything in this package is deterministic: the sketch ages by
// operation count rather than wall clock, and no randomness is consumed
// anywhere, so enabling the subsystem in the simulator perturbs no
// existing rand streams.
package hotspot

import "mspastry/internal/id"

// Sketch is a count-min sketch over key IDs. Estimates are upper bounds
// on observed frequency; collisions only inflate, never deflate. To
// keep estimates fresh under shifting popularity, all counters are
// halved after a fixed number of increments (count-based aging, as in
// TinyLFU), which is deterministic across runs.
type Sketch struct {
	rows  [][]uint32
	mask  uint64
	adds  int
	limit int
}

// rowSeeds are arbitrary odd constants mixed into the per-row hash.
var rowSeeds = [...]uint64{
	0x9e3779b97f4a7c15,
	0xbf58476d1ce4e5b9,
	0x94d049bb133111eb,
	0xd6e8feb86659fd93,
}

// NewSketch builds a sketch with the given width (rounded up to a power
// of two, minimum 16) and depth (clamped to [1, 4]). The aging sample
// size is 8x the width: once that many Adds accumulate, every counter
// is halved.
func NewSketch(width, depth int) *Sketch {
	if depth < 1 {
		depth = 1
	}
	if depth > len(rowSeeds) {
		depth = len(rowSeeds)
	}
	w := 16
	for w < width {
		w <<= 1
	}
	s := &Sketch{mask: uint64(w - 1), limit: 8 * w}
	s.rows = make([][]uint32, depth)
	for i := range s.rows {
		s.rows[i] = make([]uint32, w)
	}
	return s
}

// mix is the splitmix64 finalizer; it decorrelates the per-row indices
// derived from the same 128-bit key.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (s *Sketch) index(row int, key id.ID) uint64 {
	return mix(key.Hi^mix(key.Lo^rowSeeds[row])) & s.mask
}

// Add records one observation of key.
func (s *Sketch) Add(key id.ID) {
	for r := range s.rows {
		c := &s.rows[r][s.index(r, key)]
		if *c < 1<<30 {
			*c++
		}
	}
	s.adds++
	if s.adds >= s.limit {
		s.age()
	}
}

// Estimate returns the sketch's frequency estimate for key (the minimum
// over rows).
func (s *Sketch) Estimate(key id.ID) uint32 {
	est := uint32(1<<31 - 1)
	for r := range s.rows {
		if c := s.rows[r][s.index(r, key)]; c < est {
			est = c
		}
	}
	return est
}

// age halves every counter, forgetting old popularity.
func (s *Sketch) age() {
	for r := range s.rows {
		for i := range s.rows[r] {
			s.rows[r][i] >>= 1
		}
	}
	s.adds = 0
}

// Occupancy reports the fraction of non-zero counters, a coarse gauge
// of how saturated (and thus collision-prone) the sketch is.
func (s *Sketch) Occupancy() float64 {
	var nz, total int
	for r := range s.rows {
		total += len(s.rows[r])
		for _, c := range s.rows[r] {
			if c != 0 {
				nz++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(nz) / float64(total)
}
