// Command tracegen generates a churn trace and prints its summary
// statistics and Figure 3 failure-rate series. A trace is a pure function
// of (family, divisor, seed), so there is no file format: the simulator
// regenerates the same trace from the same flags.
//
// Examples:
//
//	tracegen -trace overnet
//	tracegen -trace gnutella -trace-div 4 -max-dur 6h
//	tracegen -trace poisson -session 30m -nodes 1000 -duration 4h
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mspastry/internal/trace"
)

// window is the averaging window of the printed series (Figure 3 uses
// ten minutes).
const window = 10 * time.Minute

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sel      = fs.String("trace", "gnutella", "trace family: gnutella, overnet, microsoft, poisson")
		traceDiv = fs.Int("trace-div", 1, "population divisor (1 = paper size)")
		maxDur   = fs.Duration("max-dur", 0, "cap on duration (0 = full)")
		session  = fs.Duration("session", 30*time.Minute, "poisson: mean session")
		nodes    = fs.Int("nodes", 10000, "poisson: average nodes")
		duration = fs.Duration("duration", 4*time.Hour, "poisson: duration")
		seed     = fs.Int64("seed", 0, "override seed (0 = family default)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *session <= 0 || *duration <= 0 || *nodes < 1 {
		fmt.Fprintln(stderr, "-session and -duration must be positive and -nodes >= 1")
		return 2
	}
	cfg, err := trace.Family(*sel, *session, *nodes, *duration)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg = cfg.Scaled(*traceDiv, *maxDur)
	if *seed != 0 {
		cfg.Seed = *seed
	}
	tr := trace.Generate(cfg)
	if err := tr.Validate(); err != nil {
		fmt.Fprintf(stderr, "trace invalid: %v\n", err)
		return 1
	}

	lo, hi := tr.ActiveBounds()
	fmt.Fprintf(stdout, "trace %s: %d node slots, %d events over %v\n", tr.Name, tr.Nodes, len(tr.Events), tr.Duration)
	fmt.Fprintf(stdout, "active nodes: %d..%d (initial %d)\n", lo, hi, len(tr.Initial))
	fmt.Fprintf(stdout, "mean completed session: %v\n", tr.MeanSessionObserved().Round(time.Second))
	fmt.Fprintf(stdout, "\n%-10s %10s %8s %8s %14s\n", "window", "active", "joins", "leaves", "failures/n/s")
	for _, w := range tr.Windows(window) {
		fmt.Fprintf(stdout, "%-10s %10.0f %8d %8d %14.3e\n",
			w.Start.Round(time.Second), w.Active, w.Joins, w.Leaves, w.FailureRate)
	}
	return 0
}
