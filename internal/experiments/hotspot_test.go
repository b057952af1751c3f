package experiments

import (
	"testing"
	"time"
)

// TestHotspotCachingRelievesRoot pins the tentpole acceptance criteria
// at reduced scale: under a zipf(1.0) read workload the hot key's root
// runs its bounded service queue near saturation with caching off, and
// path caching must cut that endpoint's mean load factor at least 2x
// without losing lookups — while every completed read stays inside the
// one-sweep staleness bound and per-reader monotonicity holds exactly.
func TestHotspotCachingRelievesRoot(t *testing.T) {
	if testing.Short() {
		t.Skip("four 150-second saturated zipf runs")
	}
	res := hotspotRuns(hotspotConfig{
		nodes:       32,
		keys:        32,
		zipfS:       1.0,
		getRate:     4,
		putInterval: 20 * time.Second,
		duration:    150 * time.Second,
		cacheSize:   128,
		seed:        1,
	})

	if r := res.relief(); r < 2 {
		t.Errorf("hot root relief %.2fx, want >= 2x (off %.3f on %.3f at endpoint %d)",
			r, res.offStable.loads[res.hot], res.onStable.loads[res.hot], res.hot)
	}
	if on, off := res.onStable.success(), res.offStable.success(); on < off-0.02 {
		t.Errorf("stable lookup success regressed with caching: off %.3f on %.3f", off, on)
	}
	if on, off := res.onChurn.success(), res.offChurn.success(); on < off-0.02 {
		t.Errorf("churn lookup success regressed with caching: off %.3f on %.3f", off, on)
	}
	if res.onStable.cache.CacheHitsLocal+res.onStable.cache.CacheHitsRemote+res.onStable.cache.CacheServes == 0 {
		t.Error("caching-on run produced no cache activity")
	}
	if res.onStable.cache.CacheDeposits == 0 {
		t.Error("caching-on run deposited no entries on route hops")
	}
	// In a stable network the subsystem's staleness claim is exact: no
	// read may return a value superseded more than a sweep interval
	// (plus delivery grace) before it was issued, cached or not.
	for _, mode := range []struct {
		name string
		run  hotspotRun
	}{
		{"off/stable", res.offStable}, {"on/stable", res.onStable},
	} {
		if mode.run.staleBeyondBound != 0 {
			t.Errorf("%s: %d reads returned values staler than the sweep bound",
				mode.name, mode.run.staleBeyondBound)
		}
	}
	// Monotonicity: the caching-on stable run must be exactly clean —
	// the version-floor machinery refuses cached replies below a version
	// the reader already saw. The caching-off baseline is only guarded
	// loosely: under saturation a false suspicion can reroute a lookup
	// to a replication-lagged replica, and that weak consistency
	// predates this subsystem.
	if n := res.onStable.monotonicViolations; n != 0 {
		t.Errorf("on/stable: %d sequential reads went backwards for a reader", n)
	}
	if n, lim := res.offStable.monotonicViolations, res.offStable.gets/200; n > lim {
		t.Errorf("off/stable: %d of %d sequential reads went backwards, want <= %d",
			n, res.offStable.gets, lim)
	}
	// Under churn the base DHT can lose an acked write outright (root
	// crashes before replicating it), which the audit counts as stale
	// until the key's next rewrite. That is durability loss predating
	// this subsystem, not cache staleness; the guard here is that
	// caching does not amplify it — the chained-hearsay bug this test
	// originally caught turned ~10% of reads stale.
	for _, mode := range []struct {
		name string
		run  hotspotRun
	}{
		{"off/churn", res.offChurn}, {"on/churn", res.onChurn},
	} {
		if lim := mode.run.gets / 100; mode.run.staleBeyondBound > lim {
			t.Errorf("%s: %d of %d reads staler than the sweep bound, want <= %d",
				mode.name, mode.run.staleBeyondBound, mode.run.gets, lim)
		}
		if lim := mode.run.gets / 200; mode.run.monotonicViolations > lim {
			t.Errorf("%s: %d of %d sequential reads went backwards, want <= %d",
				mode.name, mode.run.monotonicViolations, mode.run.gets, lim)
		}
	}
	for _, mode := range []struct {
		name string
		run  hotspotRun
	}{
		{"off/stable", res.offStable}, {"on/stable", res.onStable},
		{"off/churn", res.offChurn}, {"on/churn", res.onChurn},
	} {
		if mode.run.gets == 0 {
			t.Errorf("%s: no reads issued", mode.name)
		}
	}
	// The caching-off runs must not touch any cache machinery: off is
	// the bit-identical baseline.
	if n := res.offStable.cache.CacheHitsLocal + res.offStable.cache.CacheHitsRemote + res.offStable.cache.CacheServes +
		res.offStable.cache.CacheDeposits + res.offStable.cache.CacheInvalidations; n != 0 {
		t.Errorf("caching-off run recorded %d cache events", n)
	}
}
