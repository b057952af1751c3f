package mspastry

// BenchmarkExperiments regenerates every table and figure of the paper's
// evaluation (§5): one sub-benchmark per entry of the experiments
// registry (internal/experiments.All, which says what each reproduces),
// run at a reduced scale (a few hundred overlay nodes, tens of simulated
// minutes), with the entry's headline numbers reported as custom
// benchmark metrics. So `go test -bench Experiments -benchtime 1x .`
// doubles as a quick reproduction run, and EXPERIMENTS.md's measured
// columns come from it. Full-scale runs (the paper's 2,000-20,000 node
// populations and multi-day traces) are driven by cmd/mspastry-bench.

import (
	"testing"
	"time"

	"mspastry/internal/experiments"
)

// benchScale is small enough for the whole suite to complete in a few
// minutes: GATech/8, Gnutella/24, 150-node Poisson traces, 40-45
// simulated minutes.
var benchScale = experiments.Scale{
	TopoDiv:         8,
	TraceDiv:        24,
	MaxDuration:     45 * time.Minute,
	PoissonNodes:    150,
	PoissonDuration: 40 * time.Minute,
	SetupRamp:       4 * time.Minute,
	Seed:            1,
}

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All {
		if e.Live {
			continue
		}
		b.Run(e.Name, func(b *testing.B) {
			var rep experiments.Report
			for i := 0; i < b.N; i++ {
				var err error
				if rep, err = e.Run(benchScale); err != nil {
					b.Fatal(err)
				}
			}
			for _, h := range rep.Headlines {
				b.ReportMetric(h.Value, h.Name)
			}
		})
	}
}
