package harness

import "testing"

// TestChurnLossAcrossSeeds runs the pinned churn config of the golden
// report at seeds 1–48 and bounds what the lookups lost in total. The
// bound is the count before a short leaf-set side began probing only the
// candidates it has places for: a cheaper repair must not cost lookups.
// No lookup may be delivered by a node that is not its key's root.
func TestChurnLossAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("48 churn runs: ~15 s")
	}
	const maxLost = 570
	var lost, incorrect uint64
	for seed := int64(1); seed <= 48; seed++ {
		cfg := goldenChurnConfig(t)
		cfg.Seed = seed
		tot := Run(cfg).Totals
		lost += uint64(tot.Lost)
		incorrect += uint64(tot.Incorrect)
	}
	t.Logf("seeds 1-48: lost=%d incorrect=%d", lost, incorrect)
	if incorrect != 0 {
		t.Errorf("%d lookups delivered by a node that is not the key's root", incorrect)
	}
	if lost > maxLost {
		t.Errorf("%d lookups lost, more than %d", lost, maxLost)
	}
}
