package experiments

import (
	"testing"
	"time"

	"mspastry/internal/harness"
)

// TestSecureRoutingRestoresSuccess pins the headline secure-routing
// claims: with defenses off a 10% Byzantine population (dropping,
// misrouting, ack-forging, table-poisoning colluders) visibly degrades
// lookup success; with defenses on, success at f=0.1 recovers to at
// least 99% of the no-adversary baseline; and the routing failure test
// produces (almost) no false positives on an honest overlay — the
// precondition of the paper's dependability argument.
func TestSecureRoutingRestoresSuccess(t *testing.T) {
	if testing.Short() {
		t.Skip("four 20-minute simulated adversary runs")
	}
	res := secureRuns(quick(), 40, 20*time.Minute, []float64{0, 0.1})
	success := func(r harness.Result) float64 { return 1 - r.Totals.LossRate() }
	offBase, onBase := success(res[0]), success(res[1])
	offAdv, onAdv := success(res[2]), success(res[3])
	adv := res[3]
	t.Logf("off: f=0 %.4f f=0.1 %.4f | on: f=0 %.4f f=0.1 %.4f", offBase, offAdv, onBase, onAdv)
	t.Logf("defended f=0.1: reports=%d fail=%d rounds=%d sends=%d distrust=%d giveups=%d claims=%d forged=%d",
		adv.Secure.Reports, adv.Secure.TestFail, adv.Secure.RedundantRounds,
		adv.Secure.RedundantSends, adv.Secure.Distrusted, adv.Secure.GiveUps,
		adv.Adversary.RootClaims, adv.Adversary.ReportsForged)

	if offAdv > offBase-0.03 {
		t.Fatalf("undefended success under f=0.1 is %.4f, expected a visible drop from %.4f", offAdv, offBase)
	}
	if restored := ratio(onAdv, onBase); restored < 0.99 {
		t.Fatalf("defended success at f=0.1 is %.4f of baseline (want >= 0.99)", restored)
	}
	if fp := falsePositiveRate(res[1]); fp > 0.001 {
		t.Fatalf("routing failure test false-positive rate %.5f on honest overlay (want ~0)", fp)
	}
}
