package topology

import (
	"math/rand"
	"testing"
	"time"
)

func smallGATech(t *testing.T, seed int64) *Network {
	t.Helper()
	cfg := GATechConfig{TransitDomains: 4, RoutersPerTransit: 3, StubsPerRouter: 2, RoutersPerStub: 4}
	return GATech(cfg, rand.New(rand.NewSource(seed)))
}

func TestGATechSize(t *testing.T) {
	n := GATech(DefaultGATech(), rand.New(rand.NewSource(1)))
	if got := n.NumRouters(); got != 5050 {
		t.Fatalf("GATech routers = %d, want 5050 (paper size)", got)
	}
	if n.Metric() != MetricRTT {
		t.Fatalf("GATech metric = %v, want rtt", n.Metric())
	}
}

func TestCorpNetSize(t *testing.T) {
	n := CorpNet(DefaultCorpNet(), rand.New(rand.NewSource(1)))
	if got := n.NumRouters(); got != 298 {
		t.Fatalf("CorpNet routers = %d, want 298 (paper size)", got)
	}
}

func TestMercatorMetric(t *testing.T) {
	cfg := MercatorConfig{AS: 10, RoutersPerAS: 5, HopDelayMS: 5, InterASDegree: 2}
	n := Mercator(cfg, rand.New(rand.NewSource(1)))
	if n.Metric() != MetricHops {
		t.Fatalf("Mercator metric = %v, want hops", n.Metric())
	}
	if n.NumRouters() != 50 {
		t.Fatalf("routers = %d, want 50", n.NumRouters())
	}
}

func TestConnectivityAllPairsFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nets := []*Network{
		smallGATech(t, 2),
		Mercator(MercatorConfig{AS: 8, RoutersPerAS: 4, HopDelayMS: 5, InterASDegree: 2}, rng),
		CorpNet(CorpNetConfig{Hubs: 5, EdgeRouters: 20}, rng),
	}
	for _, n := range nets {
		n.Attach(20, rng)
		for a := 0; a < len(n.attach); a++ {
			for b := 0; b < len(n.attach); b++ {
				d := n.Delay(a, b)
				if d < 0 || d > time.Minute {
					t.Fatalf("%s: delay(%d,%d) = %v not finite/sane", n.Name(), a, b, d)
				}
			}
		}
	}
}

func TestDelaySymmetricAndZeroOnSelf(t *testing.T) {
	n := smallGATech(t, 3)
	rng := rand.New(rand.NewSource(3))
	n.Attach(30, rng)
	for a := 0; a < 30; a++ {
		if d := n.Delay(a, a); d != 0 {
			t.Fatalf("self delay = %v", d)
		}
		for b := a + 1; b < 30; b++ {
			ab, ba := n.Delay(a, b), n.Delay(b, a)
			diff := ab - ba
			if diff < 0 {
				diff = -diff
			}
			if diff > time.Microsecond {
				t.Fatalf("asymmetric delay: %v vs %v", ab, ba)
			}
		}
	}
}

func TestTriangleInequalityMostlyHolds(t *testing.T) {
	// Shortest-path delays satisfy the triangle inequality exactly on the
	// router graph; LAN links can only add, so endpoint delays satisfy it
	// too (up to float noise).
	n := smallGATech(t, 4)
	rng := rand.New(rand.NewSource(4))
	n.Attach(15, rng)
	for a := 0; a < 15; a++ {
		for b := 0; b < 15; b++ {
			for c := 0; c < 15; c++ {
				direct := n.Delay(a, c)
				via := n.Delay(a, b) + n.Delay(b, c)
				if direct > via+2*time.Millisecond+time.Microsecond {
					// +2ms: the intermediate endpoint's LAN link is crossed
					// twice on the indirect path, which is extra delay, so
					// direct can never exceed via by more than float error;
					// allow tiny slack.
					t.Fatalf("triangle violated: d(%d,%d)=%v > %v", a, c, direct, via)
				}
			}
		}
	}
}

func TestRTTIsTwiceDelay(t *testing.T) {
	n := smallGATech(t, 5)
	rng := rand.New(rand.NewSource(5))
	n.Attach(10, rng)
	for a := 0; a < 10; a++ {
		for b := 0; b < 10; b++ {
			if n.RTT(a, b) != 2*n.Delay(a, b) {
				t.Fatalf("RTT != 2*Delay for (%d,%d)", a, b)
			}
		}
	}
}

func TestGATechDeterministicForSeed(t *testing.T) {
	a := smallGATech(t, 7)
	b := smallGATech(t, 7)
	rngA, rngB := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	a.Attach(10, rngA)
	b.Attach(10, rngB)
	for x := 0; x < 10; x++ {
		for y := 0; y < 10; y++ {
			if a.Delay(x, y) != b.Delay(x, y) {
				t.Fatalf("same seed, different delays at (%d,%d)", x, y)
			}
		}
	}
}

func TestMercatorHopDelayQuantised(t *testing.T) {
	cfg := MercatorConfig{AS: 6, RoutersPerAS: 4, HopDelayMS: 5, InterASDegree: 2}
	n := Mercator(cfg, rand.New(rand.NewSource(8)))
	rng := rand.New(rand.NewSource(8))
	n.Attach(10, rng)
	for a := 0; a < 10; a++ {
		for b := 0; b < 10; b++ {
			d := n.Delay(a, b)
			ms := d / time.Millisecond
			if d != ms*time.Millisecond || ms%5 != 0 {
				t.Fatalf("Mercator delay %v not a multiple of 5ms hops", d)
			}
		}
	}
}

func TestMercatorPathsPreferFewASCrossings(t *testing.T) {
	// Two endpoints in the same AS must never route via another AS, so
	// their delay must be below the cost of even one AS crossing plus the
	// intra-AS diameter.
	cfg := MercatorConfig{AS: 5, RoutersPerAS: 6, HopDelayMS: 5, InterASDegree: 2}
	n := Mercator(cfg, rand.New(rand.NewSource(11)))
	// Endpoints 0 and 1 attach to routers 0 and 1, both in AS 0.
	a := attachTo(n, 0, 0)
	b := attachTo(n, 1, 0)
	d := n.Delay(a, b)
	maxIntra := time.Duration(cfg.RoutersPerAS) * 5 * time.Millisecond
	if d > maxIntra {
		t.Fatalf("intra-AS delay %v exceeds intra-AS diameter %v: route left the AS", d, maxIntra)
	}
}

// attachTo connects one end node to a chosen router with the given LAN
// delay and returns its endpoint index.
func attachTo(n *Network, router int, lanMS float64) int {
	n.attach = append(n.attach, router)
	n.lanMS = append(n.lanMS, lanMS)
	return len(n.attach) - 1
}

func TestLANLinkContributes(t *testing.T) {
	n := smallGATech(t, 12)
	a := attachTo(n, 0, 1) // 1 ms LAN
	b := attachTo(n, 0, 1) // same router
	if got, want := n.Delay(a, b), 2*time.Millisecond; got != want {
		t.Fatalf("same-router endpoint delay = %v, want %v (two LAN links)", got, want)
	}
}

func TestDelayCacheConsistency(t *testing.T) {
	n := smallGATech(t, 13)
	rng := rand.New(rand.NewSource(13))
	n.Attach(10, rng)
	first := n.Delay(2, 7)
	for i := 0; i < 5; i++ {
		if n.Delay(2, 7) != first {
			t.Fatal("cached delay changed between calls")
		}
	}
}

func TestCorpNetDeepLocality(t *testing.T) {
	// The paper's low CorpNet RDP rests on deep locality: same-site pairs
	// are dramatically closer than the average pair (short campus links
	// vs world-wide core delays). Check the min/mean delay ratio is far
	// smaller than GATech's.
	rng := rand.New(rand.NewSource(21))
	corp := CorpNet(DefaultCorpNet(), rng)
	ga := GATech(DefaultGATech(), rng)
	corp.Attach(60, rng)
	ga.Attach(60, rng)
	minMeanRatio := func(n *Network) float64 {
		var sum, min time.Duration
		count := 0
		for a := 0; a < 60; a++ {
			for b := a + 1; b < 60; b++ {
				d := n.Delay(a, b)
				sum += d
				if min == 0 || d < min {
					min = d
				}
				count++
			}
		}
		return float64(min) / (float64(sum) / float64(count))
	}
	rc, rg := minMeanRatio(corp), minMeanRatio(ga)
	if rc >= rg {
		t.Fatalf("CorpNet min/mean ratio %.4f >= GATech %.4f; expected deeper locality", rc, rg)
	}
}

func BenchmarkDelayColdCache(b *testing.B) {
	n := GATech(DefaultGATech(), rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(1))
	n.Attach(512, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.srcVecs = make(map[int][]float32)
		for j := 0; j < 32; j++ {
			n.Delay(j, 511-j)
		}
	}
}

func BenchmarkDelayWarmCache(b *testing.B) {
	n := GATech(DefaultGATech(), rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(1))
	n.Attach(512, rng)
	for j := 0; j < 512; j++ {
		n.Delay(j, 511-j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Delay(i%512, (i*7)%512)
	}
}
