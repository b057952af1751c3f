package experiments

import (
	"fmt"
	"testing"
	"time"
)

// TestMassFailureRecovery kills half of a settled overlay in one instant,
// at 60 and 120 nodes and seeds 1–8, and requires the survivors' ring to
// be consistent again within 2 minutes; every run recovers in 40 s to
// 1 min.
func TestMassFailureRecovery(t *testing.T) {
	for _, nodes := range []int{60, 120} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					r := massFailureRun(seed, nodes, 0.5, 20*time.Minute)
					t.Logf("killed %d/%d; recovered=%v in %v with %d leaf msgs",
						r.killed, r.nodes, r.recovered, r.recoveryTime, r.leafMsgs)
					if !r.recovered {
						t.Fatal("overlay did not heal from a 50% correlated failure")
					}
					if r.recoveryTime > 2*time.Minute {
						t.Fatalf("recovery took %v", r.recoveryTime)
					}
				})
			}
		})
	}
}
