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
	tr     *transport.UDP
	node   *pastry.Node
	store  *dht.Store
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
}

// liveRing is the capacity of each live node's event ring.
const liveRing = 64

func startLiveNode(t *testing.T, seed int64) *liveNode {
	t.Helper()
	tr, err := transport.Listen("127.0.0.1:0", seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })

	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(liveRing)
	obs := telemetry.NewOverlay(reg, tracer, telemetry.OverlayOptions{})
	tr.SetMetricsSink(telemetry.NewTransportMetrics(reg))

	cfg := pastry.DefaultConfig()
	node, err := tr.CreateNode(id.ID{}, cfg, obs)
	if err != nil {
		t.Fatal(err)
	}
	ln := &liveNode{tr: tr, node: node, reg: reg, tracer: tracer}
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
		"# TYPE mspastry_join_latency_seconds histogram",
		"mspastry_join_latency_seconds_count 1",
		"# TYPE mspastry_transport_msgs_sent_total counter",
		"mspastry_transport_msgs_sent_total{category=",
		"mspastry_transport_bytes_sent_total",
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

	// /debug/events 404s when no tracer was configured.
	if code, _ = get(t, base+"/debug/events"); code != http.StatusNotFound {
		t.Errorf("/debug/events without tracer: status %d, want 404", code)
	}
}

// TestEventsEndpoint serves a tracer's events and checks that ?n= selects
// the newest ones, oldest first, in the JSON shape of telemetry.Event.
func TestEventsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(8)
	refs := make([]pastry.NodeRef, 3)
	for i := range refs {
		refs[i] = pastry.NodeRef{ID: id.FromKey(fmt.Sprint("n", i)), Addr: fmt.Sprintf("10.0.0.%d:1", i)}
	}
	for i, e := range []telemetry.Event{
		{Node: refs[0], Kind: telemetry.KindIssued},
		{Node: refs[0], Kind: telemetry.KindHop, Cause: "forward", Peer: refs[1]},
		{Node: refs[1], Kind: telemetry.KindHop, Cause: "forward", Peer: refs[2], Detail: 1},
		{Node: refs[2], Kind: telemetry.KindDelivered, Detail: 2},
	} {
		e.At, e.TraceID, e.Origin, e.Seq = time.Duration(i)*time.Millisecond, 42, refs[0], 1
		tracer.Add(e)
	}

	srv, err := Serve("127.0.0.1:0", reg, Options{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, "http://"+srv.Addr()+"/debug/events?n=2")
	if code != http.StatusOK {
		t.Fatalf("/debug/events status %d", code)
	}
	var events []telemetry.Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/debug/events is not valid JSON: %v\n%s", err, body)
	}
	want := tracer.Recent(2)
	if len(events) != 2 || events[0] != want[0] || events[1] != want[1] {
		t.Fatalf("events = %v, want %v", events, want)
	}
	if events[1].Kind != telemetry.KindDelivered || events[1].Node != refs[2] || events[1].At != 3*time.Millisecond {
		t.Fatalf("newest event = %v", events[1])
	}
}

// TestEveryLiveNodeRecordsItsHops runs lookups through a loopback overlay
// in which each node has its own bounded ring, as each mspastry-node
// process does. Every ring stays within its capacity however many
// lookups pass, and a node that issued none of them still records the
// hops it forwarded and the deliveries it made as their root.
func TestEveryLiveNodeRecordsItsHops(t *testing.T) {
	const lookups, batch = 2000, 100
	nodes := []*liveNode{startLiveNode(t, 1)}
	nodes[0].tr.DoSync(func(n *pastry.Node) { n.Bootstrap() })
	nodes[0].waitActive(t)
	seedRef := pastry.NodeRef{ID: nodes[0].node.Ref().ID, Addr: nodes[0].tr.Addr()}
	for seed := int64(2); seed <= 4; seed++ {
		ln := startLiveNode(t, seed)
		ln.tr.DoSync(func(n *pastry.Node) { n.Join(seedRef) })
		ln.waitActive(t)
		nodes = append(nodes, ln)
	}
	delivered := func() (sum float64) {
		for _, ln := range nodes {
			for _, m := range ln.reg.Snapshot() {
				if m.Name == "mspastry_lookup_hops" {
					sum += float64(m.Count)
				}
			}
		}
		return sum
	}

	origin := nodes[0]
	base := delivered()
	for sent := batch; sent <= lookups; sent += batch {
		origin.tr.DoSync(func(n *pastry.Node) {
			for i := sent - batch; i < sent; i++ {
				n.Lookup(id.FromKey(fmt.Sprint("leak", i)), nil)
			}
		})
		deadline := time.Now().Add(10 * time.Second)
		for delivered()-base < float64(sent) {
			if time.Now().After(deadline) {
				t.Fatalf("%v of %d lookups delivered", delivered()-base, sent)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	for i, ln := range nodes {
		events := ln.tracer.Recent(0)
		if len(events) > liveRing {
			t.Errorf("node %d holds %d events, capacity %d", i, len(events), liveRing)
		}
		if i == 0 {
			continue
		}
		var forwarded, rooted int
		for _, e := range events {
			if e.Origin.ID != origin.node.Ref().ID {
				continue
			}
			switch e.Kind {
			case telemetry.KindHop:
				forwarded++
			case telemetry.KindDelivered:
				rooted++
			}
		}
		t.Logf("node %d: %d events, %d hops and %d deliveries of node 0's lookups", i, len(events), forwarded, rooted)
		if forwarded+rooted == 0 {
			t.Errorf("node %d records none of node 0's lookups", i)
		}
	}
}
