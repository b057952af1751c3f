package telemetry

import (
	"math"
	"regexp"
	"strings"
	"testing"
)

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("c_total", "help") != c {
		t.Fatal("re-registration must return the same counter")
	}
	var m struct {
		V *CounterVec `metric:"v_total" help:"help" label:"cat"`
		G *Gauge      `metric:"g" help:"help"`
	}
	r.Register(&m)
	v := m.V
	v.With("a").Inc()
	v.With("a").Inc()
	v.With("b").Inc()
	if v.With("a").Value() != 2 || v.With("b").Value() != 1 {
		t.Fatal("labelled children not independent")
	}
	g := m.G
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1, 2, 4})
	for i := 0; i < 4; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 4; i++ {
		h.Observe(1.5)
	}
	h.Observe(3)
	h.Observe(3)
	if h.Count() != 10 {
		t.Fatalf("count = %d", h.Count())
	}
	if want := 4*0.5 + 4*1.5 + 2*3.0; math.Abs(h.Sum()-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	// rank 5 lands in the (1,2] bucket 1/4 of the way through: 1.25.
	if got := h.Quantile(0.5); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("p50 = %v, want 1.25", got)
	}
	// rank 9 lands in the (2,4] bucket half way through: 3.
	if got := h.Quantile(0.9); math.Abs(got-3.0) > 1e-12 {
		t.Fatalf("p90 = %v, want 3", got)
	}
	if h.Quantile(0.99) > 4 {
		t.Fatal("quantile exceeded top bound with no overflow samples")
	}

	// Overflow samples: the +Inf bucket reports its lower bound.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	if got := h.Quantile(0.99); got != 4 {
		t.Fatalf("overflow p99 = %v, want 4 (the +Inf bucket's lower bound)", got)
	}
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-][0-9]+)?$`)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_requests_total", "Requests.").Add(3)
	var m struct {
		ByCat *CounterVec `metric:"t_by_cat_total" help:"By category." label:"category"`
		Temp  *Gauge      `metric:"t_temp" help:"Temp."`
	}
	r.Register(&m)
	m.ByCat.With("x").Inc()
	m.Temp.Set(1.5)
	h := r.Histogram("t_lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP t_requests_total Requests.\n# TYPE t_requests_total counter\nt_requests_total 3\n",
		"t_by_cat_total{category=\"x\"} 1\n",
		"# TYPE t_temp gauge\nt_temp 1.5\n",
		"# TYPE t_lat_seconds histogram\n",
		"t_lat_seconds_bucket{le=\"0.1\"} 1\n",
		"t_lat_seconds_bucket{le=\"1\"} 2\n",    // cumulative
		"t_lat_seconds_bucket{le=\"+Inf\"} 3\n", // total
		"t_lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestCollectHooksRunOnScrapeAndSnapshot(t *testing.T) {
	r := NewRegistry()
	g := r.gauge("t_live", "Live value.")
	calls := 0
	r.OnCollect(func() {
		calls++
		g.Set(float64(calls))
	})

	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "t_live 1\n") {
		t.Fatalf("collect hook did not run before render:\n%s", b.String())
	}

	snap := r.Snapshot()
	if calls != 2 {
		t.Fatalf("collect calls = %d, want 2", calls)
	}
	found := false
	for _, mv := range snap {
		if mv.Name == "t_live" && mv.Value == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot missing refreshed gauge: %+v", snap)
	}
}

func TestSnapshotHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_h", "help", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	var mv *MetricValue
	for _, m := range r.Snapshot() {
		if m.Name == "t_h" {
			mv = &m
			break
		}
	}
	if mv == nil {
		t.Fatal("histogram missing from snapshot")
	}
	if mv.Count != 2 || mv.Quantiles["p50"] == 0 || mv.Quantiles["p99"] == 0 {
		t.Fatalf("snapshot histogram = %+v", *mv)
	}
}

func TestSetGaugesWalksTaggedNumbers(t *testing.T) {
	r := NewRegistry()
	r.SetGauges(struct {
		A     int64   `metric:"t_a" help:"A."`
		B     uint32  `metric:"t_b" help:"B."`
		C     float64 `metric:"t_c" help:"C."`
		Plain int
		Names []string
	}{A: -3, B: 7, C: 0.5, Plain: 9})
	var b strings.Builder
	r.WritePrometheus(&b)
	want := "# HELP t_a A.\n# TYPE t_a gauge\nt_a -3\n" +
		"# HELP t_b B.\n# TYPE t_b gauge\nt_b 7\n" +
		"# HELP t_c C.\n# TYPE t_c gauge\nt_c 0.5\n"
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a metric tag on a string field did not panic")
		}
	}()
	r.SetGauges(struct {
		S string `metric:"t_s" help:"S."`
	}{})
}

func TestRegisterDeclaresEveryHandleKind(t *testing.T) {
	r := NewRegistry()
	var m struct {
		C     *Counter    `metric:"t_c_total" help:"C."`
		CV    *CounterVec `metric:"t_cv_total" help:"CV." label:"cat"`
		G     *Gauge      `metric:"t_g" help:"G."`
		GV    *GaugeVec   `metric:"t_gv" help:"GV." label:"slot"`
		H     *Histogram  `metric:"t_h_seconds" help:"H." buckets:"DefBuckets"`
		Plain *Counter
		N     int
	}
	r.Register(&m)
	if m.Plain != nil {
		t.Fatal("Register set an untagged field")
	}
	m.C.Inc()
	m.CV.With("x").Inc()
	m.G.Set(2)
	m.GV.With("y").Set(3)
	m.H.Observe(0.002)
	if m.C != r.Counter("t_c_total", "") || m.H != r.Histogram("t_h_seconds", "", DefBuckets) {
		t.Fatal("a second registration by name returned another handle")
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	for _, want := range []string{
		"# HELP t_c_total C.\n# TYPE t_c_total counter\nt_c_total 1\n",
		"# HELP t_cv_total CV.\n# TYPE t_cv_total counter\nt_cv_total{cat=\"x\"} 1\n",
		"# HELP t_g G.\n# TYPE t_g gauge\nt_g 2\n",
		"# HELP t_gv GV.\n# TYPE t_gv gauge\nt_gv{slot=\"y\"} 3\n",
		"# HELP t_h_seconds H.\n# TYPE t_h_seconds histogram\nt_h_seconds_bucket{le=\"0.001\"} 0\n",
		"t_h_seconds_bucket{le=\"0.0025\"} 1\n",
		"t_h_seconds_bucket{le=\"1\"} 1\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q\n%s", want, b.String())
		}
	}
}

func TestRegisterRejectsMalformedTags(t *testing.T) {
	for name, ptr := range map[string]any{
		"unknown buckets": &struct {
			H *Histogram `metric:"t_h" help:"H." buckets:"NoSuchBuckets"`
		}{},
		"vec without label": &struct {
			V *CounterVec `metric:"t_v" help:"V."`
		}{},
		"gauge vec without label": &struct {
			V *GaugeVec `metric:"t_v" help:"V."`
		}{},
		"unsupported type": &struct {
			N float64 `metric:"t_n" help:"N."`
		}{},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Register did not panic")
				}
			}()
			NewRegistry().Register(ptr)
		})
	}
}

func TestHistogramRejectsOtherBuckets(t *testing.T) {
	r := NewRegistry()
	r.Histogram("t_h", "", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("a histogram registered again with other buckets did not panic")
		}
	}()
	r.Histogram("t_h", "", []float64{1, 2, 4})
}

// The benchmark reads the Overlay's delay histogram by name; it must get
// the very histogram the Overlay observes into.
func TestOverlayDelayHistogramByName(t *testing.T) {
	reg := NewRegistry()
	o := NewOverlay(reg, nil, OverlayOptions{SharedClock: true})
	if h := reg.Histogram("mspastry_lookup_delay_seconds", "", DefBuckets); h != o.m.Delay {
		t.Fatal("a lookup by name returned another histogram than the Overlay's")
	}
}
