package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestGeneratorPropertyClosedWorld: any plausible closed-world
// configuration generates a valid trace whose active population stays
// within [0, Population] and roughly around OnlineFraction*Population.
func TestGeneratorPropertyClosedWorld(t *testing.T) {
	f := func(popRaw uint16, fracRaw, sessRaw uint8, diurnalRaw, weeklyRaw uint8, seed int64) bool {
		cfg := Config{
			Name:           "prop",
			Duration:       6 * time.Hour,
			Population:     int(popRaw%400) + 50,
			OnlineFraction: 0.1 + float64(fracRaw%80)/100,
			MeanSession:    time.Duration(int(sessRaw%110)+10) * time.Minute,
			Diurnal:        float64(diurnalRaw%80) / 100,
			Weekly:         float64(weeklyRaw%50) / 100,
			Seed:           seed,
		}
		tr := Generate(cfg)
		if err := tr.Validate(); err != nil {
			t.Logf("config %+v invalid: %v", cfg, err)
			return false
		}
		lo, hi := tr.ActiveBounds()
		if lo < 0 || hi > cfg.Population {
			t.Logf("bounds [%d,%d] outside [0,%d]", lo, hi, cfg.Population)
			return false
		}
		expect := cfg.OnlineFraction * float64(cfg.Population)
		// Bounds must bracket a generous band around the expectation
		// (small populations are noisy; diurnal waves swing the count).
		if float64(hi) < expect*0.4 || float64(lo) > expect*2.2+10 {
			t.Logf("bounds [%d,%d] vs expected %.0f", lo, hi, expect)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratorPropertyOpenWorld: Poisson traces stay stationary for any
// session time.
func TestGeneratorPropertyOpenWorld(t *testing.T) {
	f := func(sessRaw uint8, nodesRaw uint16, seed int64) bool {
		session := time.Duration(int(sessRaw%115)+5) * time.Minute
		nodes := int(nodesRaw%300) + 100
		cfg := Poisson(session, nodes, 4*time.Hour)
		cfg.Seed = seed
		tr := Generate(cfg)
		if err := tr.Validate(); err != nil {
			t.Logf("poisson %v/%d invalid: %v", session, nodes, err)
			return false
		}
		lo, hi := tr.ActiveBounds()
		// Stationary within +-40% plus Poisson noise allowance.
		slack := 4.0 * float64(nodes) / 10
		if float64(lo) < float64(nodes)*0.6-slack || float64(hi) > float64(nodes)*1.4+slack {
			t.Logf("poisson bounds [%d,%d] for target %d", lo, hi, nodes)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowsPropertyConservation: over any trace, the sum of per-window
// joins equals the total join events, same for leaves, and the active
// count implied by events matches the integral's endpoints.
func TestWindowsPropertyConservation(t *testing.T) {
	f := func(popRaw uint8, winRaw uint8, seed int64) bool {
		cfg := Config{
			Name:           "cons",
			Duration:       3 * time.Hour,
			Population:     int(popRaw%150) + 20,
			OnlineFraction: 0.4,
			MeanSession:    25 * time.Minute,
			Diurnal:        0.3,
			Seed:           seed,
		}
		tr := Generate(cfg)
		window := time.Duration(int(winRaw%50)+5) * time.Minute
		wins := tr.Windows(window)
		joins, leaves := 0, 0
		for _, w := range wins {
			joins += w.Joins
			leaves += w.Leaves
		}
		wantJ, wantL := 0, 0
		for _, ev := range tr.Events {
			if ev.Kind == Join {
				wantJ++
			} else {
				wantL++
			}
		}
		return joins == wantJ && leaves == wantL
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}
