// Command mspastry-bench reproduces the tables and figures of the paper's
// evaluation (§5). It runs entries of the experiments registry
// (internal/experiments.All) at the scale its flags set and prints each
// one's tables, headline numbers and the paper's own values; EXPERIMENTS.md
// has a section per experiment name.
//
// The repo's performance benchmark is a separate program: see
// bench/README.md and `sh bench/run.sh`.
//
// Examples:
//
//	mspastry-bench -experiment all
//	mspastry-bench -experiment fig6 -trace-div 8 -max-dur 3h
//	mspastry-bench -experiment hotspot -hotspot-nodes 32 -hotspot-dur 150s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mspastry/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(experiments.All))
	for i, e := range experiments.All {
		names[i] = e.Name
	}
	known := "all, " + strings.Join(names, ", ")

	s := experiments.Scale{SetupRamp: 5 * time.Minute, Seed: 1}
	fs := flag.NewFlagSet("mspastry-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("experiment", "all", "experiment: "+known)
	fs.IntVar(&s.TopoDiv, "topo-div", 8, "topology scale divisor (1 = paper size)")
	fs.IntVar(&s.TraceDiv, "trace-div", 16, "trace population divisor (1 = paper size)")
	fs.DurationVar(&s.MaxDuration, "max-dur", 90*time.Minute, "cap on trace duration (0 = full traces: Gnutella is 60h, fig8's Squirrel replay 6 days)")
	fs.IntVar(&s.PoissonNodes, "poisson-nodes", 250, "average nodes in the artificial traces (paper: 10000)")
	fs.DurationVar(&s.PoissonDuration, "poisson-dur", time.Hour, "artificial trace duration")
	fs.IntVar(&s.HotspotNodes, "hotspot-nodes", 0, "hotspot: cluster size (0 = scale default)")
	fs.DurationVar(&s.HotspotDuration, "hotspot-dur", 0, "hotspot: measurement window (0 = scale default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	selected := experiments.All
	if *which != "all" {
		selected = nil
		for _, e := range experiments.All {
			if e.Name == *which {
				selected = []experiments.Experiment{e}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "unknown experiment %q; known: %s\n", *which, known)
			return 2
		}
	}

	start := time.Now()
	for _, e := range selected {
		rep, err := e.Run(s)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		e.Fprint(stdout, rep)
	}
	fmt.Fprintf(stdout, "\ncompleted in %v\n", time.Since(start).Round(time.Second))
	return 0
}
