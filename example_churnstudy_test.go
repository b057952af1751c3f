package mspastry_test

import (
	"fmt"
	"time"

	"mspastry"
)

// The paper's headline experiment in miniature: run the harness against
// scaled versions of the three real-world churn traces (Gnutella, OverNet,
// Microsoft) and print the dependability and performance metrics of §5.2.
// Expected shape (§5.3): zero incorrect deliveries without link loss, and
// Microsoft — the most stable population — with the least control traffic
// and the longest self-tuned probing period.
func Example_churnStudy() {
	topo, err := mspastry.BuildTopology("gatech", 8, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	traces := []mspastry.TraceConfig{
		mspastry.GnutellaTrace().Scaled(40, 40*time.Minute),
		mspastry.OverNetTrace().Scaled(10, 40*time.Minute),
		mspastry.MicrosoftTrace().Scaled(250, 40*time.Minute),
	}
	fmt.Printf("%-10s %6s %10s %10s %6s %9s %10s\n",
		"trace", "nodes", "loss", "incorrect", "RDP", "ctrl/n/s", "medianTrt")
	for _, tc := range traces {
		cfg := mspastry.DefaultExperiment(topo, mspastry.GenerateTrace(tc))
		cfg.SetupRamp = 5 * time.Minute
		res := mspastry.RunExperiment(cfg)
		t := res.Totals
		fmt.Printf("%-10s %6.0f %10.2e %10.2e %6.2f %9.3f %10s\n",
			tc.Name, t.MeanActive, t.LossRate(), t.IncorrectRate(), t.RDP,
			t.ControlPerNodeSec, res.TrtMedian.Round(time.Second))
	}
	// Output:
	// trace       nodes       loss  incorrect    RDP  ctrl/n/s  medianTrt
	// gnutella       52   0.00e+00   0.00e+00   1.47     0.277     35m50s
	// overnet        49   0.00e+00   0.00e+00   1.91     0.289     27m30s
	// microsoft      60   0.00e+00   0.00e+00   1.25     0.087     1h0m0s
}
