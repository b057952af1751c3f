package experiments

import "testing"

// TestAntiEntropyReducesMaintenanceBytes runs the sweep-bandwidth
// comparison at a reduced shape (the bench runs the full 100-node,
// 1,000-object version) and asserts the acceptance bar: Merkle
// anti-entropy spends at least 5x fewer maintenance bytes than
// re-pushing every value every sweep would, under churn, while still
// doing real repair work.
func TestAntiEntropyReducesMaintenanceBytes(t *testing.T) {
	res := antiEntropyRun(1, 24, 240)

	// 240 objects of 64 bytes pushed to 2 replicas in each of 5 sweeps.
	if res.fullPushes != 240*2*5 || res.fullPushBytes < 64*res.fullPushes {
		t.Fatalf("closed-form baseline: %d pushes, %d bytes", res.fullPushes, res.fullPushBytes)
	}
	if res.sent.MaintBytes == 0 {
		t.Fatal("anti-entropy run recorded no maintenance traffic")
	}
	if res.sent.SyncRounds == 0 {
		t.Error("no anti-entropy rounds ran")
	}
	if res.sent.SyncClean == 0 {
		t.Error("no round found replicas already converged")
	}
	if res.sent.SyncKeysRepaired == 0 {
		t.Error("the crashes left nothing to repair")
	}
	if got := res.reduction(); got < 5 {
		t.Errorf("maintenance reduction = %.1fx, want >= 5x\nfull push: %d bytes\nanti-entropy: %+v",
			got, res.fullPushBytes, res.sent)
	}
}
