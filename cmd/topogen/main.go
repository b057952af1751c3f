// Command topogen generates the paper's simulated network topologies and
// prints their structural and delay statistics (useful for validating a
// scale factor before a long simulation).
//
// Examples:
//
//	topogen -topo gatech
//	topogen -topo mercator -scale 4 -samples 200
//	topogen -topo corpnet
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"mspastry/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("topo", "gatech", "topology: gatech, mercator, corpnet")
		scale   = fs.Int("scale", 1, "scale divisor (1 = paper size)")
		samples = fs.Int("samples", 300, "end nodes to attach for delay sampling")
		seed    = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *samples < 2 {
		fmt.Fprintln(stderr, "-samples must be >= 2: delays are measured between pairs")
		return 2
	}
	topo, err := harness.BuildTopology(*name, *scale, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "topology %s: %d routers, metric=%s\n", topo.Name(), topo.NumRouters(), topo.Metric())

	rng := rand.New(rand.NewSource(*seed))
	first := topo.Attach(*samples, rng)
	var ds []time.Duration
	var sum time.Duration
	start := time.Now()
	for a := 0; a < *samples; a++ {
		for b := a + 1; b < *samples; b++ {
			d := topo.Delay(first+a, first+b)
			ds = append(ds, d)
			sum += d
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	n := len(ds)
	mean := sum / time.Duration(n)
	pct := func(p int) time.Duration { return ds[n*p/100] }
	fmt.Fprintf(stdout, "pairwise one-way delays over %d samples (%d pairs, computed in %v):\n",
		*samples, n, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "  min=%v p1=%v p10=%v p50=%v p90=%v p99=%v max=%v mean=%v\n",
		ds[0], pct(1), pct(10), pct(50), pct(90), pct(99), ds[n-1], mean)
	fmt.Fprintf(stdout, "  locality (p1/mean): %.3f — lower means deeper locality for PNS to exploit\n",
		float64(pct(1))/float64(mean))
	return 0
}
