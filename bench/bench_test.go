package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 1, 1, 1, 100}, 1},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got, err := percentile(xs, 0.5); err != nil || got != 500 {
		t.Errorf("p50 of 0..999 = %v, %v; want 500", got, err)
	}
	// p99 of 1000 samples leaves 9 beyond it: one short.
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 1000 samples was reported with 9 samples beyond it")
	}
	if got, err := percentile(append(xs, 1000), 0.99); err != nil || got != 990 {
		t.Errorf("p99 of 0..1000 = %v, %v; want 990", got, err)
	}
	if _, err := percentile(xs[:15], 0.5); err == nil {
		t.Error("p50 of 15 samples was reported with 7 samples beyond it")
	}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 40, parent: 0},    // 1: child
		{start: 15, end: 25, parent: 1},    // 2: grandchild
		{start: 50, end: 90, parent: 0},    // 3: second child
		{start: 200, end: 230, parent: -1}, // 4: unrelated root
	}
	want := []int64{100 - 30 - 40, 30 - 10, 10, 40, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got, want[i])
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},
		{start: 60, end: 120, parent: 0}, // sticks out of the parent: only 60..100 counts
		{start: 10, end: 50, parent: 0},  // recorded out of start order
		{start: 30, end: 70, parent: 0},  // overlaps both neighbours
		{start: 35, end: 45, parent: 0},  // inside an already covered stretch
	}
	// Children cover 10..100 of the parent.
	if got := selfTimes(spans)[0]; got != 10 {
		t.Errorf("parent self time %d, want 10", got)
	}
}

func TestSpanRecorderMark(t *testing.T) {
	r := newSpanRec(true, 16, "a", "b")
	setup := r.begin(0, -1, 0)
	r.end(setup)
	r.mark()
	root := r.begin(0, setup, 7) // parent from before the mark
	child := r.begin(1, root, 7)
	r.end(child)
	r.end(root)
	kept := r.kept()
	if len(kept) != 2 || kept[0].parent != -1 || kept[1].parent != 0 || kept[1].op != 7 {
		t.Fatalf("kept spans %+v", kept)
	}
	tot := sumSpans(kept, 2)
	if tot.count[0] != 1 || tot.count[1] != 1 || tot.self[0]+tot.self[1] != tot.incl[0] {
		t.Errorf("totals %+v: self times do not add up to the root's duration", tot)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"setup_s", "pastry.receive_ns.lookup", "a-b", "9lives", "A.b_c-d"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "µs", string(long)} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validMetricName(d.Name) {
			t.Errorf("metric name %q is not valid", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: direction %q", d.Name, d.Better)
		}
	}
	for _, name := range partitionShares {
		if !seen[name] {
			t.Errorf("partition share %q is not a per-layer metric", name)
		}
	}
}

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONParity(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the runner", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].label() || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the runner %q (%q)", i, w.Name, w.Why, workloads[i].label(), workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the runner", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the runner %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the runner", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the runner %+v", i, m, d)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", b.Paths)
	}
}

// TestQuickSmoke runs every workload, plain and traced, at one-tenth size
// and checks that each prints exactly the metrics the tables name, with no
// correctness problem and no failed operation.
func TestQuickSmoke(t *testing.T) {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	for _, full := range workloads {
		w := full.quick()
		t.Run(w.label(), func(t *testing.T) {
			res, err := w.run(1, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := collect(endToEnd, res.metrics, false)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range got {
				if v.Value == 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v: end-to-end metrics are never zero", name, v.Value)
				}
			}
			if len(res.metrics) != len(endToEnd) {
				t.Errorf("measured %v, the table names %d metrics", keys(res.metrics), len(endToEnd))
			}
			check(t, res)

			res, err = w.traced(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range res.metrics {
				if !known[name] {
					t.Errorf("traced run measured %q, which is not a per-layer metric", name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", name, v)
				}
			}
			sum := 0.0
			for _, name := range partitionShares {
				sum += res.metrics[name]
			}
			if math.Abs(sum-1) > 0.02 {
				t.Errorf("layer shares sum to %v", sum)
			}
			check(t, res)
		})
	}
}

func check(t *testing.T, res result) {
	t.Helper()
	for _, p := range res.problems {
		t.Errorf("incorrect output: %s", p)
	}
	if res.attempted < 1 || res.failed != 0 {
		t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
	}
}

func keys(m map[string]float64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func TestWorseBy(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := worseBy(lower, 100, 110); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 100 -> 110: %v, want 0.1", got)
	}
	if got := worseBy(higher, 100, 90); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("higher-is-better 100 -> 90: %v, want 0.1", got)
	}
	if got := worseBy(higher, 100, 110); got >= 0 {
		t.Errorf("higher-is-better 100 -> 110 reads as worse by %v", got)
	}
}
