package admin

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mspastry/internal/dht"
	"mspastry/internal/id"
	"mspastry/internal/pastry"
	"mspastry/internal/telemetry"
	"mspastry/internal/transport"
)

// liveNode bundles one UDP transport, its node, DHT store and telemetry,
// the way cmd/mspastry-node wires them.
type liveNode struct {
	tr    *transport.UDP
	node  *pastry.Node
	store *dht.Store
	reg   *telemetry.Registry
}

func startLiveNode(t *testing.T, seed int64) *liveNode {
	t.Helper()
	tr, err := transport.Listen("127.0.0.1:0", seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })

	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(64)
	obs := telemetry.NewOverlay(reg, tracer, telemetry.OverlayOptions{})
	tr.SetMetricsSink(telemetry.NewTransportMetrics(reg))

	cfg := pastry.DefaultConfig()
	node, err := tr.CreateNode(id.ID{}, cfg, obs)
	if err != nil {
		t.Fatal(err)
	}
	ln := &liveNode{tr: tr, node: node, reg: reg}
	tr.DoSync(func(n *pastry.Node) {
		ln.store = dht.New(n, tr.Env(), dht.DefaultConfig())
	})
	reg.OnCollect(func() {
		tr.DoSync(func(n *pastry.Node) {
			if n == nil {
				return
			}
			reg.SetGauges(n.Stats())
			reg.SetGauges(ln.store.Counters())
			reg.SetGauges(ln.store.StoreStats())
		})
	})
	return ln
}

func (ln *liveNode) waitActive(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var active bool
		ln.tr.DoSync(func(n *pastry.Node) { active = n.Active() })
		if active {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("node did not become active")
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestTwoNodeOverlayAdmin is the live end-to-end check: boot two nodes
// over real UDP sockets, store and fetch a value through the DHT, and
// assert the admin endpoint serves non-empty overlay counters with the
// same metric names the simulator emits.
func TestTwoNodeOverlayAdmin(t *testing.T) {
	a := startLiveNode(t, 1)
	a.tr.DoSync(func(n *pastry.Node) { n.Bootstrap() })
	a.waitActive(t)

	b := startLiveNode(t, 2)
	seedRef := pastry.NodeRef{ID: a.node.Ref().ID, Addr: a.tr.Addr()}
	b.tr.DoSync(func(n *pastry.Node) { n.Join(seedRef) })
	b.waitActive(t)

	srv, err := Serve("127.0.0.1:0", a.reg, Options{
		Status: func() any {
			var leaf int
			a.tr.DoSync(func(n *pastry.Node) { leaf = n.Leaf().Size() })
			return map[string]any{"id": a.node.Ref().ID.String(), "leaf": leaf}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Drive application traffic through node B so the overlay routes it.
	key := id.FromKey("greeting")
	putDone := make(chan error, 1)
	b.tr.Do(func(*pastry.Node) {
		b.store.Put(key, []byte("hello"), func(err error) { putDone <- err })
	})
	if err := <-putDone; err != nil {
		t.Fatalf("put: %v", err)
	}
	type result struct {
		v   []byte
		err error
	}
	getDone := make(chan result, 1)
	b.tr.Do(func(*pastry.Node) {
		b.store.Get(key, func(v []byte, err error) { getDone <- result{v, err} })
	})
	if res := <-getDone; res.err != nil || string(res.v) != "hello" {
		t.Fatalf("get: %q, %v", res.v, res.err)
	}

	base := "http://" + srv.Addr()
	code, metrics := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE mspastry_joins_total counter",
		"mspastry_joins_total 1",
		"# TYPE mspastry_transport_msgs_sent_total counter",
		"mspastry_transport_msgs_sent_total{category=",
		"mspastry_transport_datagrams_sent_total",
		"mspastry_node_heartbeats_sent",
		"mspastry_dht_sync_rounds",
		"mspastry_store_objects",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, "mspastry_transport_msgs_sent_total{category=\"leafset\"} 0\n") {
		t.Error("leafset message counter is zero on an active node")
	}

	code, status := get(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status status %d", code)
	}
	var doc struct {
		Status  map[string]any          `json:"status"`
		Metrics []telemetry.MetricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(status), &doc); err != nil {
		t.Fatalf("/status is not valid JSON: %v\n%s", err, status)
	}
	if doc.Status["id"] != a.node.Ref().ID.String() {
		t.Errorf("/status id = %v", doc.Status["id"])
	}
	if leaf, _ := doc.Status["leaf"].(float64); leaf < 1 {
		t.Errorf("/status leaf = %v, want >= 1", doc.Status["leaf"])
	}
	if len(doc.Metrics) == 0 {
		t.Error("/status metrics empty")
	}

	code, _ = get(t, base+"/debug/pprof/")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}

	// /traces 404s when no tracer was configured.
	if code, _ = get(t, base+"/traces"); code != http.StatusNotFound {
		t.Errorf("/traces without tracer: status %d, want 404", code)
	}
}

// TestTracesEndpoint serves a tracer that has recorded a synthetic
// delivered lookup and checks the JSON shape.
func TestTracesEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(8)
	refs := make([]pastry.NodeRef, 3)
	for i := range refs {
		refs[i] = pastry.NodeRef{ID: id.FromKey(fmt.Sprint("n", i)), Addr: fmt.Sprintf("10.0.0.%d:1", i)}
	}
	lk := &pastry.Lookup{TraceID: 42, Key: id.FromKey("k"), Origin: refs[0]}
	tracer.Begin(lk, 0)
	tracer.Hop(lk, refs[0], refs[1], pastry.HopForward, time.Millisecond)
	tracer.Hop(lk, refs[1], refs[2], pastry.HopForward, 2*time.Millisecond)
	tracer.Deliver(lk, refs[2], 3*time.Millisecond)

	srv, err := Serve("127.0.0.1:0", reg, Options{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, "http://"+srv.Addr()+"/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status %d", code)
	}
	var doc struct {
		Stats  telemetry.TraceStats `json:"stats"`
		Traces []lookupTraceJSON    `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/traces is not valid JSON: %v\n%s", err, body)
	}
	if doc.Stats.Delivered != 1 || doc.Stats.Reconstructed != 1 {
		t.Fatalf("trace stats = %+v", doc.Stats)
	}
	if len(doc.Traces) != 1 {
		t.Fatalf("got %d traces", len(doc.Traces))
	}
	tr0 := doc.Traces[0]
	if tr0.TraceID != 42 || !tr0.Delivered || len(tr0.Hops) != 2 {
		t.Fatalf("trace = %+v", tr0)
	}
	want := []string{refs[0].ID.String(), refs[1].ID.String(), refs[2].ID.String()}
	if len(tr0.Path) != 3 || tr0.Path[0] != want[0] || tr0.Path[2] != want[2] {
		t.Fatalf("path = %v, want %v", tr0.Path, want)
	}
}
