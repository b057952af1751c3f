package experiments

import (
	"testing"
	"time"
)

func TestMassFailureRecovery(t *testing.T) {
	r := massFailureRun(1, 60, 0.5, 20*time.Minute)
	t.Logf("killed %d/%d; recovered=%v in %v with %d leaf msgs",
		r.killed, r.nodes, r.recovered, r.recoveryTime, r.leafMsgs)
	if !r.recovered {
		t.Fatal("overlay did not heal from a 50% correlated failure")
	}
	if r.recoveryTime > 10*time.Minute {
		t.Fatalf("recovery took %v", r.recoveryTime)
	}
}

func TestMassFailureRecoveryLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("larger soak")
	}
	r := massFailureRun(1, 120, 0.5, 20*time.Minute)
	t.Logf("killed %d/%d; recovered=%v in %v", r.killed, r.nodes, r.recovered, r.recoveryTime)
	if !r.recovered {
		t.Fatal("120-node overlay did not heal from a 50% correlated failure")
	}
}
