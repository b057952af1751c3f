package main

// The metric families a live node exposes, pinned. A registry is wired the
// way run wires it (NewOverlay, NewTransportMetrics, and collectGauges over
// a node and a DHT store with the hotspot cache on), every labelled family
// is given one child so that it is exposed, and the sorted # HELP and
// # TYPE lines of its exposition are compared with
// testdata/metric_families.golden. That file was recorded by running this
// very file in a clone of the parent commit of the change that moved the
// metric names onto struct tags:
//
//	git clone . /tmp/parent && cd /tmp/parent && git checkout <parent>
//	cp <this file> cmd/mspastry-node/ && go test ./cmd/mspastry-node -run MetricFamilies -update
//
// with the hook that run held inline at that commit standing in for
// collectGauges — the procedure of the recorded wire frames
// (internal/pastry/frames_test.go). internal/harness checks that every
// family the simulator emits is in it. The change that removed
// control-message coalescing edited it by hand: the four families that
// described batching went, and the help text of datagrams_sent_total and
// decode_errors_total no longer speaks of batches. A later change edited
// the help text of datagrams_received_total and bytes_received_total by
// hand to say what the transport counts: a datagram whose message decoded.
// The change that counted passive repair requests added the two lines of
// mspastry_node_repair_requests_sent by hand. The change that kept every
// count once edited by hand the help text of mspastry_node_retransmits, to
// say what it counts (per-hop ack timeouts; retransmissions are
// mspastry_hop_retransmits_total), and of msgs_sent_total, which counts
// only messages written to the socket and now stands for datagrams too.
// It removed seven families, each equal to one that stays;
// removedSinceRecording lists their lines.

import (
	"encoding/json"
	"flag"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"mspastry/internal/dht"
	"mspastry/internal/id"
	"mspastry/internal/overload"
	"mspastry/internal/pastry"
	"mspastry/internal/telemetry"
	"mspastry/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/metric_families.golden from this tree")

const familiesGoldenPath = "testdata/metric_families.golden"

// addedSinceRecording are the lines the recording change added on purpose:
// a tally the hand-written mirror it replaced had never exported.
var addedSinceRecording = []string{
	"# HELP mspastry_dht_handoff_offers Digest-first handoff offers sent.",
	"# TYPE mspastry_dht_handoff_offers gauge",
}

// removedSinceRecording are the lines later changes removed on purpose,
// each family because another that stays carries its count: the
// secure-routing observer's two families, whose counts the
// mspastry_node_secure_* gauges carry (mean fanout = redundant sends over
// redundant rounds); then seven twins — delivered lookups (both equal
// mspastry_lookup_hops_count), joins (mspastry_join_latency_seconds_count),
// datagrams each way (a datagram is one message: the
// mspastry_transport_msgs_*_total sums), the DHT's stored objects
// (mspastry_store_objects) and its cache purges
// (mspastry_hotspot_cache_purged_total, the same PurgeOlderThan return).
var removedSinceRecording = []string{
	"# HELP mspastry_secure_redundant_fanout First-hop copies sent per redundant diverse-path round.",
	"# HELP mspastry_secure_verdicts_total Routing failure test verdicts on root completion reports.",
	"# TYPE mspastry_secure_redundant_fanout histogram",
	"# TYPE mspastry_secure_verdicts_total counter",

	"# HELP mspastry_lookups_delivered_total Lookups delivered by this node as the key's root.",
	"# TYPE mspastry_lookups_delivered_total counter",
	"# HELP mspastry_node_delivered_lookups Lookups delivered as root (node counter).",
	"# TYPE mspastry_node_delivered_lookups gauge",
	"# HELP mspastry_joins_total Nodes that completed the join protocol and became active.",
	"# TYPE mspastry_joins_total counter",
	"# HELP mspastry_transport_datagrams_sent_total Frames written to the socket, one message each.",
	"# TYPE mspastry_transport_datagrams_sent_total counter",
	"# HELP mspastry_transport_datagrams_received_total Received datagrams whose message decoded, one message each.",
	"# TYPE mspastry_transport_datagrams_received_total counter",
	"# HELP mspastry_dht_local_objects Objects currently stored on this node.",
	"# TYPE mspastry_dht_local_objects gauge",
	"# HELP mspastry_dht_cache_purged Cached entries evicted by the sweep staleness backstop.",
	"# TYPE mspastry_dht_cache_purged gauge",
}

// liveFamilies returns the sorted # HELP and # TYPE lines of a live node's
// registry.
func liveFamilies(t *testing.T) []string {
	t.Helper()
	tr, err := transport.Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := telemetry.NewRegistry()
	obs := telemetry.NewOverlay(reg, nil, telemetry.OverlayOptions{})
	sink := telemetry.NewTransportMetrics(reg)
	tr.SetMetricsSink(sink)
	if _, err := tr.CreateNode(id.ID{}, pastry.DefaultConfig(), obs); err != nil {
		t.Fatal(err)
	}
	dhtCfg := dht.DefaultConfig()
	dhtCfg.CacheEntries = 8
	var store *dht.Store
	tr.DoSync(func(n *pastry.Node) {
		store = dht.New(n, tr.Env(), dhtCfg)
		// A labelled family is exposed once it has a child.
		obs.LookupDropped(n, &pastry.Lookup{}, pastry.DropTTL)
		obs.MessageSent(n, pastry.CatLookup, false)
		obs.LeafSetRepair(n, "announce")
	})
	sink.MsgSent(pastry.CatLookup, 0)
	sink.MsgReceived(pastry.CatLookup, 0)
	sink.MsgShed(overload.LaneBulk)
	collectGauges(reg, tr, store, nil, true)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	return lines
}

func TestMetricFamiliesGolden(t *testing.T) {
	got := liveFamilies(t)
	if *update {
		if err := os.WriteFile(familiesGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(familiesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := append(strings.Split(strings.TrimSuffix(string(b), "\n"), "\n"), addedSinceRecording...)
	want = slices.DeleteFunc(want, func(line string) bool { return slices.Contains(removedSinceRecording, line) })
	sort.Strings(want)
	for _, line := range got {
		if _, found := slices.BinarySearch(want, line); !found {
			t.Errorf("live node exposes a line the golden lacks: %s", line)
		}
	}
	for _, line := range want {
		if _, found := slices.BinarySearch(got, line); !found {
			t.Errorf("live node no longer exposes: %s", line)
		}
	}
}

// /status's status object carries what no metric does; every number that
// has a metric is read from the metrics array of the same response.
func TestStatusCarriesNoMetric(t *testing.T) {
	tr, err := transport.Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.CreateNode(id.ID{}, pastry.DefaultConfig(), nil); err != nil {
		t.Fatal(err)
	}
	tr.DoSync(func(n *pastry.Node) { n.Bootstrap() })
	b, err := json.Marshal(statusSnapshot(tr, true))
	if err != nil {
		t.Fatal(err)
	}
	var status, over map[string]json.RawMessage
	if err := json.Unmarshal(b, &status); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(status["overload"], &over); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		obj  map[string]json.RawMessage
		want string
	}{
		{status, "active addr durable id leaf_left leaf_right overload routing_entries routing_rows"},
		{over, "breakers load_factor"},
	} {
		var keys []string
		for k := range c.obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, " "); got != c.want {
			t.Errorf("keys %s, want %s", got, c.want)
		}
	}
}
