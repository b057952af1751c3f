package harness

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func TestZipfDeterministic(t *testing.T) {
	a := NewZipf(7, 64, 1.0)
	b := NewZipf(7, 64, 1.0)
	for i := 0; i < 64; i++ {
		if a.Key(i) != b.Key(i) {
			t.Fatalf("key set diverged at rank %d", i)
		}
	}
	ra, rb := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if a.Next(ra) != b.Next(rb) {
			t.Fatalf("sample sequence diverged at draw %d", i)
		}
	}
	if c := NewZipf(8, 64, 1.0); c.Key(0) == a.Key(0) {
		t.Fatal("different seeds produced the same key set")
	}
}

func TestZipfIsSkewed(t *testing.T) {
	// s = 1.0 is the interesting exponent: math/rand's Zipf requires
	// s > 1, which is exactly why the harness rolls its own sampler.
	z := NewZipf(1, 100, 1.0)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, z.Len())
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[z.Rank(rng)]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Fatalf("popularity not monotone: rank0=%d rank1=%d rank10=%d",
			counts[0], counts[1], counts[10])
	}
	// Under zipf(1.0) over 100 keys, rank 0 carries ~19% of draws.
	if frac := float64(counts[0]) / draws; frac < 0.15 || frac > 0.25 {
		t.Fatalf("hottest key drew %.3f of traffic, want ~0.19", frac)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != draws {
		t.Fatalf("samples lost: %d of %d", total, draws)
	}
}

// TestLookupGeneratorAllocations pins the harness's own share of a lookup
// at nothing: firing a node's generator allocates what Node.Lookup does
// (the Lookup and the Env's handle for its zero-delay routing callback) —
// no event handle for the generator's next firing, no boxed bookkeeping.
func TestLookupGeneratorAllocations(t *testing.T) {
	cfg := faultConfig(t, 1, time.Minute)
	cfg.LookupRate = 0 // the test fires the generator itself
	r := newRun(cfg)
	r.startNode(0, true)
	r.cfg.LookupRate = 1
	g := &lookupGen{r: r, n: r.slots[0].node, origin: r.slots[0].ep.Index()}
	fire := func() {
		g.Fire()
		clear(r.outstanding) // nothing is routed here, so nothing else would
	}
	fire()
	const lookup, handle = 1, 1
	if got := testing.AllocsPerRun(200, fire); got > lookup+handle {
		t.Errorf("one firing of the generator: %v allocs, want at most %d", got, lookup+handle)
	}
	if r.sim.Pending() < 200 {
		t.Fatalf("%d events pending: the generator did not reschedule itself", r.sim.Pending())
	}
}

// TestJoinRampAllocations pins what a static overlay costs to build: 64
// nodes join over faultConfig's two-minute ramp on CorpNet at seed 1 and
// settle for a minute, with no lookups — join requests and replies, leaf
// probes, distance probes and row announcements, the joiners' tables and
// records. The pin is objects per joined node, counted with the process at
// one P as testing.AllocsPerRun counts them. Runs differ by a few dozen
// objects of map growth, under the race detector by about one per node;
// the maximum allows those and no more. Measured with go1.24: a toolchain
// whose maps grow differently moves the count, and then the pin is
// re-measured, not loosened.
func TestJoinRampAllocations(t *testing.T) {
	const nodes, maxPerNode = 64, 1211
	cfg := faultConfig(t, nodes, time.Minute)
	cfg.LookupRate = 0
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := newRun(cfg)
	r.execute()
	runtime.ReadMemStats(&after)
	joined := 0
	for _, s := range r.slots {
		if s.node != nil && s.node.Active() {
			joined++
		}
	}
	if joined != nodes {
		t.Fatalf("%d of %d nodes joined", joined, nodes)
	}
	if per := float64(after.Mallocs-before.Mallocs) / nodes; per > maxPerNode {
		t.Errorf("the join ramp cost %.1f objects per joined node, want at most %d", per, maxPerNode)
	}
}
