package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count). It panics on an empty slice: every caller has at least
// one timed repetition.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported (choosing-metrics: "the highest percentile that has at least
// ten samples beyond it").
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule, refusing when fewer than minBeyond samples lie
// beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	idx := int(p * float64(n))
	if idx >= n {
		idx = n - 1
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

// repSample is the raw measurement of one repetition.
type repSample struct {
	wall, cpu time.Duration
	ops       int
	mallocs   uint64
	bytes     uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureRep collects garbage, then runs fn once and reports its wall time,
// process CPU time, allocations and the op count fn returns.
func measureRep(fn func() int) repSample {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	ops := fn()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	return repSample{
		wall: wall, cpu: cpu, ops: ops,
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
	}
}

// costMetrics folds timed repetitions into the host-cost end-to-end
// metrics: the rate is the median over repetitions, counts are totals
// over repetitions divided by total ops.
func costMetrics(reps []repSample, m map[string]float64) {
	var rate []float64
	var ops int
	var mallocs, bytes uint64
	for _, r := range reps {
		rate = append(rate, float64(r.ops)/r.wall.Seconds())
		ops += r.ops
		mallocs += r.mallocs
		bytes += r.bytes
	}
	m["ops_per_s"] = median(rate)
	m["allocs_per_op"] = float64(mallocs) / float64(ops)
	m["alloc_bytes_per_op"] = float64(bytes) / float64(ops)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["peak_heap_mb"] = float64(ms.HeapSys) / (1 << 20)
}

// cpuPerOp is the median over repetitions of process CPU microseconds per
// op.
func cpuPerOp(reps []repSample) float64 {
	var cpu []float64
	for _, r := range reps {
		cpu = append(cpu, float64(r.cpu.Microseconds())/float64(r.ops))
	}
	return median(cpu)
}

// timeSetup performs a workload's set-up several times, tearing each one
// down except the last, and returns the median duration with the first
// (cold caches, first heap growth) discarded, plus the product of the
// last set-up for the timed repetitions to use.
func timeSetup[T any](times int, setup func() (T, error), teardown func(T)) (float64, T, error) {
	var durs []float64
	var last T
	for i := 0; i < times; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		d := time.Since(t0).Seconds()
		if err != nil {
			return 0, last, fmt.Errorf("set-up %d: %w", i, err)
		}
		note := ""
		if i == 0 && times > 1 {
			note = " (discarded)"
		} else {
			durs = append(durs, d)
		}
		fmt.Printf("setup %d: %.4f s%s\n", i, d, note)
		if i < times-1 {
			teardown(v)
		} else {
			last = v
		}
	}
	return median(durs), last, nil
}

func printRep(i int, discarded bool, r repSample) {
	note := ""
	if discarded {
		note = " (discarded)"
	}
	fmt.Printf("rep %d: wall=%.4fs cpu=%.4fs ops=%d ops/s=%.1f allocs=%d%s\n",
		i, r.wall.Seconds(), r.cpu.Seconds(), r.ops, float64(r.ops)/r.wall.Seconds(), r.mallocs, note)
}

// gcCost is what the collector cost over an interval: its CPU time, the
// process's CPU time, the wall time and the number of cycles.
type gcCost struct {
	gcCPU, cpu, wall float64 // seconds
	cycles           uint64
}

// gcSince measures the interval that started when the returned function
// was obtained.
func gcSince() func() gcCost {
	read := func() (float64, uint64) {
		s := []metrics.Sample{
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/gc/cycles/total:gc-cycles"},
		}
		metrics.Read(s)
		return s[0].Value.Float64(), s[1].Value.Uint64()
	}
	gc0, cycles0 := read()
	cpu0, t0 := cpuTime(), time.Now()
	return func() gcCost {
		gc1, cycles1 := read()
		return gcCost{gc1 - gc0, (cpuTime() - cpu0).Seconds(), time.Since(t0).Seconds(), cycles1 - cycles0}
	}
}

func (g *gcCost) add(o gcCost) {
	g.gcCPU += o.gcCPU
	g.cpu += o.cpu
	g.wall += o.wall
	g.cycles += o.cycles
}

// report fills the runtime metrics: the collector's share of the
// process's CPU time and its cycle rate.
func (g gcCost) report(m map[string]float64) {
	m["runtime.gc_cpu_share"] = g.gcCPU / g.cpu
	m["runtime.gc_cycles_per_s"] = float64(g.cycles) / g.wall
}
