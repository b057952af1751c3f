package harness

import (
	"math"
	"math/rand"

	"mspastry/internal/id"
)

// Zipf is a seeded zipf(s) sampler over a fixed set of n keys: key rank
// i (1-based) is drawn with probability proportional to 1/i^s. Unlike
// math/rand's Zipf it accepts any s > 0 (the classic web measurements
// cluster around s ≈ 1, which rand.NewZipf excludes), using inverse-CDF
// sampling over the precomputed cumulative weights. Set on Config.Zipf,
// it concentrates lookup traffic on a few hot roots.
//
// The key set derives from its own seeded stream, so enabling the zipf
// workload never perturbs the simulator's other random draws, and a Zipf
// is read-only once built, so runs may share one.
type Zipf struct {
	keys []id.ID
	cum  []float64
}

// zipfKeyStream decorrelates the popular-key id stream from every other
// consumer of the run seed.
const zipfKeyStream = 0x5a1bfc0de

// NewZipf builds a sampler over n keys with exponent s. It panics on
// n < 1 or s <= 0: the caller validates user input.
func NewZipf(seed int64, n int, s float64) *Zipf {
	if n < 1 {
		panic("harness: zipf key count must be >= 1")
	}
	if s <= 0 {
		panic("harness: zipf exponent must be > 0")
	}
	keyRand := rand.New(rand.NewSource(seed ^ zipfKeyStream))
	z := &Zipf{keys: make([]id.ID, n), cum: make([]float64, n)}
	total := 0.0
	for i := 0; i < n; i++ {
		z.keys[i] = id.Random(keyRand)
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

// Len returns the size of the popular key set.
func (z *Zipf) Len() int { return len(z.keys) }

// Key returns the key at popularity rank i (0 = hottest).
func (z *Zipf) Key(i int) id.ID { return z.keys[i] }

// Rank returns the next sampled popularity rank, consuming one Float64
// from rng.
func (z *Zipf) Rank(rng *rand.Rand) int {
	u := rng.Float64()
	// Binary search for the first cumulative weight >= u.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Next returns the next sampled key.
func (z *Zipf) Next(rng *rand.Rand) id.ID { return z.keys[z.Rank(rng)] }
