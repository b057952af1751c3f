package experiments

import (
	"fmt"
	"time"

	"mspastry/internal/harness"
	"mspastry/internal/netmodel"
)

// The Byzantine-routing experiment: a static overlay (no churn, no
// network loss — the adversary is the only fault; churn under attack is
// a separate question) is swept over growing malicious fractions, with
// secure routing off and on at each point, so the two curves separate the
// attack's damage from the defense's recovery.

// secureLookupRate is application lookups per second per node. Above the
// paper's 0.01/s so each point accumulates enough lookups to resolve
// success-rate differences of a percent.
const secureLookupRate = 0.05

// secureRuns runs defenses off then on for each malicious fraction, over
// the same trace, topology shape and seed: results 2i and 2i+1 belong to
// fracs[i].
func secureRuns(s Scale, nodes int, dur time.Duration, fracs []float64) []harness.Result {
	tr := stableTrace("secure-static", nodes, dur)
	return sweep(2*len(fracs), s.base("gatech", tr), func(i int, cfg *harness.Config) {
		cfg.Pastry.L = 16
		if i%2 == 1 {
			cfg.App = new(harness.SecureRouting)
		}
		cfg.LookupRate = secureLookupRate
		cfg.MaliciousFraction = fracs[i/2]
	})
}

// falsePositiveRate is the routing failure test's failed share of
// evaluated reports; on a defended run without adversary the paper's
// dependability argument rests on this being ~0.
func falsePositiveRate(r harness.Result) float64 {
	c := r.Secure
	return ratio(float64(c.TestFail), float64(c.TestPass+c.TestFail))
}

func secureSweep(s Scale) (Report, error) {
	fracs := []float64{0, 0.05, 0.1, 0.2, 0.3}
	nodes, dur := max(30, s.PoissonNodes/5), s.staticDuration()
	res := secureRuns(s, nodes, dur, fracs)
	t := Table{
		Title: fmt.Sprintf("Secure routing under Byzantine peers (%d nodes, %v, lookups %g/s)", nodes, dur, secureLookupRate),
		Cols:  []string{"success", "reports", "testFail", "rounds", "sends", "distrust", "claims", "forged", "advDrops"},
	}
	for i, r := range res {
		mode := []string{"off", "on"}[i%2]
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("f=%.2f %s", fracs[i/2], mode), Values: map[string]float64{
			"success":  1 - r.Totals.LossRate(),
			"reports":  float64(r.Secure.Reports),
			"testFail": float64(r.Secure.TestFail),
			"rounds":   float64(r.Secure.RedundantRounds),
			"sends":    float64(r.Secure.RedundantSends),
			"distrust": float64(r.Secure.Distrusted),
			"claims":   float64(r.Adversary.RootClaims),
			"forged":   float64(r.Adversary.ReportsForged),
			"advDrops": float64(r.DropsByCause[netmodel.DropAdversary]),
		}})
	}
	honest, attacked := res[1], res[5] // defended, at f=0 and f=0.1
	return Report{Tables: []Table{t}, Headlines: []Headline{
		// The defense number: 1.0 is full recovery.
		{"restoration-f0.1", ratio(1-attacked.Totals.LossRate(), 1-honest.Totals.LossRate())},
		{"false-positive-rate", falsePositiveRate(honest)},
	}}, nil
}
