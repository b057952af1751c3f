package experiments

import (
	"reflect"
	"testing"
	"time"
)

func TestPartitionHealShape(t *testing.T) {
	r := partitionRun(tiny(), partitionFor)
	if len(r.Recovery) != 1 || !r.Recovery[0].Repaired {
		t.Fatal("overlay did not repair after the partition healed")
	}
	ttr := r.Recovery[0].TimeToRepair()
	if ttr <= 0 || ttr > partitionTail {
		t.Fatalf("time-to-repair = %v, want finite and within the tail", ttr)
	}
	ph := r.Phases
	t.Logf("phases: before=%+v during=%+v after=%+v ttr=%v", ph.Before, ph.During, ph.After, ttr)
	if ph.During.Issued == 0 || ph.After.Issued == 0 {
		t.Fatalf("phase accounting incomplete: %+v", ph)
	}
	// The dependability headline: once the partition heals and the ring
	// repairs, no lookup may be delivered at a wrong root.
	if ph.After.Incorrect != 0 {
		t.Fatalf("%d incorrect deliveries after the heal", ph.After.Incorrect)
	}
	// The split must actually bite: each side serves the other side's keys
	// at its own closest node (split-brain), so cross-cut lookups are
	// misdelivered or lost while the partition lasts.
	if ph.During.Incorrect == 0 && ph.During.Lost == 0 {
		t.Fatal("the partition left no trace on lookups issued during it")
	}
}

func TestPartitionHealDeterministic(t *testing.T) {
	a := run(t, "partitionheal", tiny())
	b := run(t, "partitionheal", tiny())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different reports:\n%v\nvs\n%v", a, b)
	}
}

func TestJitterFalsePositivesGap(t *testing.T) {
	if testing.Short() {
		t.Skip("half-hour spike sweep soak")
	}
	holdRun, naiveRun := jitterRuns(tiny(), time.Second)
	hold, naive := holdRun.Totals, naiveRun.Totals
	gap := gapOrders(holdRun, naiveRun)
	t.Logf("hold: issued=%d incorrect=%d (%.3g); naive: issued=%d incorrect=%d (%.3g); gap=%.2f orders",
		hold.Issued, hold.Incorrect, hold.IncorrectRate(),
		naive.Issued, naive.Incorrect, naive.IncorrectRate(), gap)
	if naive.Incorrect == 0 {
		t.Fatal("delay spikes caused no incorrect deliveries under naive delivery")
	}
	// The paper's consistency claim: hold-on-suspect keeps incorrect
	// deliveries at least three orders of magnitude below naive delivery.
	if gap < 3 {
		t.Fatalf("gap = %.2f orders, want >= 3", gap)
	}
	if hold.IncorrectRate() > 1e-3 {
		t.Fatalf("hold-on-suspect incorrect rate %.3g too high", hold.IncorrectRate())
	}
}
