// Package telemetry is the observability layer shared by the simulator and
// live deployments: a dependency-free metrics registry (counters, gauges
// and fixed-bucket latency histograms with quantile estimation), Prometheus
// text exposition, and a ring of protocol events (a live node's flight
// recorder) from which full lookup route paths are reconstructed by the
// trace identifier carried in Lookup messages.
//
// The simulator harness and a live mspastry-node emit the same metric
// names through the same Overlay observer, so a dashboard built against
// one works unchanged against the other (the paper's "the code that runs
// in the simulator and in the real deployment is the same" property,
// extended to its metrics).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. All methods are safe for concurrent use;
// metric lookups are cached by the callers on hot paths (a Counter handle
// is an atomic, not a map lookup).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*family
	order   []*family
	collect []func()
}

// metricKind is the Prometheus TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one metric name with zero or more labelled children.
type family struct {
	name    string
	help    string
	kind    metricKind
	label   string // label name, "" for unlabelled families
	buckets []float64

	mu       sync.Mutex
	children map[string]interface{} // label value -> *Counter | *Gauge | *Histogram
	vals     []string               // label values in creation order
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*family)}
}

// OnCollect registers fn to run before every exposition (WritePrometheus
// or Snapshot). Use it to copy externally-owned tallies into gauges at
// scrape time, a tagged struct at a time with SetGauges. A surface that
// reads its numbers back from Snapshot (a live node's stdout status and
// /status) then shows what /metrics shows.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collect = append(r.collect, fn)
}

// family returns the family called name, creating it on first use. A
// family registered again must have the same kind, label and buckets.
func (r *Registry) family(name, help string, kind metricKind, label string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.metrics[name]; ok {
		if f.kind != kind || f.label != label || !slices.Equal(f.buckets, buckets) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, label: label,
		buckets: buckets, children: make(map[string]interface{}),
	}
	r.metrics[name] = f
	r.order = append(r.order, f)
	return f
}

func (f *family) child(val string, mk func() interface{}) interface{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[val]; ok {
		return c
	}
	c := mk()
	f.children[val] = c
	f.vals = append(f.vals, val)
	return c
}

// Counter returns the unlabelled counter with the given name, creating it
// on first use. A family a program declares is a Register tag; this is for
// a counter nothing else shares.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, "", nil)
	return f.child("", func() interface{} { return &Counter{} }).(*Counter)
}

// gauge returns the unlabelled gauge with the given name.
func (r *Registry) gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, "", nil)
	return f.child("", func() interface{} { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram with the given name. Buckets are upper
// bounds in ascending order, and must match any earlier registration's. A
// family a program declares is a Register tag; this looks one up by name.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, kindHistogram, "", buckets)
	return f.child("", func() interface{} { return newHistogram(f.buckets) }).(*Histogram)
}

// bucketSets are the bucket sets a `buckets` tag names.
var bucketSets = map[string][]float64{
	"DefBuckets": DefBuckets, "HopBuckets": HopBuckets,
}

// eachMetric calls fn for every field of the struct sv that has a `metric`
// tag, with the tag's family name. A field fn finds fault with (it returns
// what is wrong) is a programming error, and panics.
func eachMetric(sv reflect.Value, fn func(name string, f reflect.StructField, fv reflect.Value) (fault string)) {
	st := sv.Type()
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if name, ok := f.Tag.Lookup("metric"); ok {
			if fault := fn(name, f, sv.Field(i)); fault != "" {
				panic(fmt.Sprintf("telemetry: metric %q tags %s.%s, %s", name, st, f.Name, fault))
			}
		}
	}
}

// Register declares one family per tagged field of the struct ptr points
// to and stores the family's handle in the field: the field's type is the
// family's kind, its `metric` tag names the family and its `help` tag
// describes it. A *CounterVec or *GaugeVec field names its label in a
// `label` tag, and a *Histogram field its bucket set (DefBuckets or
// HopBuckets) in a `buckets` tag. Untagged
// fields are skipped. A tag on an unexported field or one of another type,
// a vec without a label and an unknown bucket set panic.
func (r *Registry) Register(ptr any) {
	eachMetric(reflect.ValueOf(ptr).Elem(), func(name string, f reflect.StructField, fv reflect.Value) string {
		if !fv.CanSet() {
			return "which is unexported"
		}
		help, label := f.Tag.Get("help"), f.Tag.Get("label")
		var h any
		switch fv.Interface().(type) {
		case *Counter:
			h = r.Counter(name, help)
		case *Gauge:
			h = r.gauge(name, help)
		case *Histogram:
			buckets, ok := bucketSets[f.Tag.Get("buckets")]
			if !ok {
				return "which names no bucket set"
			}
			h = r.Histogram(name, help, buckets)
		case *CounterVec:
			if label == "" {
				return "a vec without a label tag"
			}
			h = &CounterVec{f: r.family(name, help, kindCounter, label, nil)}
		case *GaugeVec:
			if label == "" {
				return "a vec without a label tag"
			}
			h = &GaugeVec{f: r.family(name, help, kindGauge, label, nil)}
		default:
			return "which is not a metric handle"
		}
		fv.Set(reflect.ValueOf(h))
		return ""
	})
}

// SetGauges sets one gauge per tagged field of the struct v: the field's
// `metric` tag names the gauge, its `help` tag describes it, and its value
// is the gauge's. Untagged fields are skipped. A tag on a field that is
// not an integer or a float is a programming error, and panics.
func (r *Registry) SetGauges(v any) {
	eachMetric(reflect.ValueOf(v), func(name string, f reflect.StructField, fv reflect.Value) string {
		var x float64
		switch {
		case fv.CanInt():
			x = float64(fv.Int())
		case fv.CanUint():
			x = float64(fv.Uint())
		case fv.CanFloat():
			x = fv.Float()
		default:
			return "which is not a number"
		}
		r.gauge(name, f.Tag.Get("help")).Set(x)
		return ""
	})
}

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With returns the child counter for the label value.
func (v *CounterVec) With(val string) *Counter {
	return v.f.child(val, func() interface{} { return &Counter{} }).(*Counter)
}

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// With returns the child gauge for the label value.
func (v *GaugeVec) With(val string) *Gauge {
	return v.f.child(val, func() interface{} { return &Gauge{} }).(*Gauge)
}

// DefBuckets are general-purpose latency buckets in seconds, from 1 ms to
// ~100 s — wide enough for per-hop ack RTTs and end-to-end lookup delays
// under fault injection.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 100,
}

// HopBuckets count overlay hops (expected O(log N)).
var HopBuckets = []float64{0, 1, 2, 3, 4, 5, 6, 8, 10, 16, 32, 64}

// Histogram is a fixed-bucket histogram. Observations are counted into the
// first bucket whose upper bound is >= the value (cumulative on export,
// like Prometheus).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	// sum holds the float64 bit pattern of the running sum, updated with a
	// CAS loop so concurrent observers never serialize on a mutex.
	sum atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram buckets must be sorted")
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (for example 0.5, 0.95, 0.99) by
// linear interpolation within the containing bucket, the same estimate
// Prometheus's histogram_quantile computes. Returns 0 with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) {
				// +Inf bucket: the upper bound is unknown; report its
				// lower bound, like histogram_quantile does.
				return lo
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// sample is one child of a family, copied out under the locks.
type sample struct {
	f     *family
	label string      // the child's label value, "" in an unlabelled family
	m     interface{} // *Counter | *Gauge | *Histogram
}

// samples runs the collect hooks, then copies out every child of every
// family in registration order: the one read that WritePrometheus and
// Snapshot render.
func (r *Registry) samples() []sample {
	r.mu.Lock()
	hooks := append([]func(){}, r.collect...)
	r.mu.Unlock()
	for _, fn := range hooks { // outside the lock: hooks set gauges
		fn()
	}
	r.mu.Lock()
	fams := append([]*family{}, r.order...)
	r.mu.Unlock()
	var out []sample
	for _, f := range fams {
		f.mu.Lock()
		for _, v := range f.vals {
			out = append(out, sample{f: f, label: v, m: f.children[v]})
		}
		f.mu.Unlock()
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), running collect hooks first.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	ss := r.samples()
	for i, s := range ss {
		f := s.f
		if i == 0 || ss[i-1].f != f {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		}
		labels := ""
		if f.label != "" {
			labels = fmt.Sprintf("{%s=%q}", f.label, s.label)
		}
		switch m := s.m.(type) {
		case *Counter:
			fmt.Fprintf(&b, "%s%s %d\n", f.name, labels, m.Value())
		case *Gauge:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, labels, formatFloat(m.Value()))
		case *Histogram:
			var cum uint64
			for j, bound := range m.bounds {
				cum += m.counts[j].Load()
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", f.name, formatFloat(bound), cum)
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", f.name, m.Count())
			fmt.Fprintf(&b, "%s_sum %s\n", f.name, formatFloat(m.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", f.name, m.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}

// MetricValue is one exported sample in a Snapshot.
type MetricValue struct {
	Name  string  `json:"name"`
	Label string  `json:"label,omitempty"`
	Value float64 `json:"value"`
	// Quantiles carries p50/p95/p99 for histograms (keyed "p50" etc.).
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
	Count     uint64             `json:"count,omitempty"`
}

// Snapshot returns every metric as a flat list (histograms as count +
// quantiles), running collect hooks first. It backs the JSON /status
// endpoint and the stdout status command.
func (r *Registry) Snapshot() []MetricValue {
	var out []MetricValue
	for _, s := range r.samples() {
		mv := MetricValue{Name: s.f.name, Label: s.label}
		switch m := s.m.(type) {
		case *Counter:
			mv.Value = float64(m.Value())
		case *Gauge:
			mv.Value = m.Value()
		case *Histogram:
			mv.Count = m.Count()
			mv.Value = m.Sum()
			mv.Quantiles = map[string]float64{
				"p50": m.Quantile(0.50),
				"p95": m.Quantile(0.95),
				"p99": m.Quantile(0.99),
			}
		}
		out = append(out, mv)
	}
	return out
}
