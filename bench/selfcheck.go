package main

import (
	"fmt"
	"math"
)

// worseBy returns by what share of a the value b is worse than a, in the
// metric's direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck runs the whole suite twice back to back and compares, per
// workload and end-to-end metric, the second run against the first: the
// evidence that two sets of runs of the same code agree within the
// benchmark's own bounds. Every value is already an in-run median.
func runSelfcheck(seed int64, seconds int) error {
	var passes [2]map[string]resultLine
	for i := range passes {
		fmt.Printf("=== selfcheck pass %d ===\n", i+1)
		res, err := runAll(seed, seconds, 0, false)
		if err != nil {
			return err
		}
		passes[i] = res
	}
	fmt.Printf("\n%-12s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	exceeded := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a := passes[0][w.label()].Metrics[d.Name].Value
			b := passes[1][w.label()].Metrics[d.Name].Value
			// Either direction counts: the two passes run the same
			// code, so "better" is disagreement too.
			diff := math.Abs(worseBy(d, a, b))
			flag := ""
			if diff > d.Bound {
				flag = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-12s %-20s %14.4f %14.4f %8.2f%% %6.1f%%%s\n", w.label(), d.Name, a, b, 100*diff, 100*d.Bound, flag)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) differ by more than their bound", exceeded)
	}
	fmt.Println("selfcheck: every metric agrees within its bound")
	return nil
}
