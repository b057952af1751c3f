package main

import (
	"fmt"
	"regexp"
)

// metricDef describes one reported metric. The tables below are the single
// source for the names, units and directions the runner prints;
// BENCHMARK.json repeats them for the driver and TestBenchmarkJSONParity
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // relative worsening allowed; end-to-end metrics only
}

// endToEnd lists what a user of the system sees. The contract the driver
// checks requires every workload to report every one of them and none to
// be zero, so only quantities that exist on all four workloads are here;
// the ones that exist on some (rdp, lat_p99_us, get_p50_us, ...) are
// reported with the per-layer set, unbounded. So is cpu_us_per_op: it
// exists everywhere, but on this box it spread by up to 32% between runs
// of the same code, more than any bound the contract allows. lat_p50_us, mean_hops and
// datagrams_per_op are simulated quantities on sim-* and host quantities
// on live-*; everything else is host time or host memory.
//
// Bounds come from the run-to-run spread (quartile distance over median,
// ten seeds) measured on the 2-core shared box the benchmark was sized on;
// README.md has the numbers. Counts and simulated quantities get about
// three times their widest spread (sim-churn's, where the seed changes how
// much maintenance a run needs). Host-time metrics get the most the contract
// allows: the box's speed drifts by ±15% over minutes whatever one run
// does, and a tighter bound would reject the benchmark, not a change.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.15},
	{"alloc_bytes_per_op", "B", "lower", 0.15},
	{"peak_heap_mb", "MiB", "lower", 0.20},
	{"success_rate", "ratio", "higher", 0.001},
	{"mean_hops", "count", "lower", 0.08},
	{"lat_p50_us", "us", "lower", 0.25},
	{"datagrams_per_op", "count", "lower", 0.25},
}

// perLayer lists the single-layer numbers a traced run prints. A metric
// that does not exist on a workload (eventsim on live-*, transport on
// sim-*) is printed as 0 there; README.md has the applicability table.
var perLayer = []metricDef{
	// Workload-level numbers that exist on only some workloads.
	{"rdp", "ratio", "lower", 0},
	{"sim_delay_p99_ms", "ms", "lower", 0},
	{"control_msgs_per_node_s", "1/s", "lower", 0},
	{"lat_p99_us", "us", "lower", 0},
	{"get_p50_us", "us", "lower", 0},
	{"put_p50_us", "us", "lower", 0},
	{"client.lat_p999_us", "us", "lower", 0},
	{"cpu_us_per_op", "us", "lower", 0},

	{"eventsim.ns_per_event", "ns", "lower", 0},
	{"eventsim.allocs_per_event", "count", "lower", 0},
	{"eventsim.events_per_op", "count", "lower", 0},
	{"eventsim.self_share", "ratio", "lower", 0},

	{"netmodel.send_ns_per_msg", "ns", "lower", 0},
	{"netmodel.allocs_per_msg", "count", "lower", 0},
	{"netmodel.msgs_per_op", "count", "lower", 0},
	{"netmodel.self_share", "ratio", "lower", 0},

	{"topology.delay_ns", "ns", "lower", 0},

	{"pastry.receive_ns.lookup", "ns", "lower", 0},
	{"pastry.receive_ns.ack", "ns", "lower", 0},
	{"pastry.receive_ns.heartbeat", "ns", "lower", 0},
	{"pastry.receive_ns.probe", "ns", "lower", 0},
	{"pastry.lookup_ns", "ns", "lower", 0},
	{"pastry.route_share", "ratio", "lower", 0},
	{"pastry.maint_share", "ratio", "lower", 0},
	{"pastry.timer_us_per_node_s", "us", "lower", 0},
	{"pastry.join_us_per_node", "us", "lower", 0},
	{"pastry.retx_per_op", "count", "lower", 0},
	{"pastry.control_msgs_per_op", "count", "lower", 0},

	{"peer.sweep_ns_per_record", "ns", "lower", 0},
	{"peer.records_per_node", "count", "lower", 0},

	{"wire.encode_ns_per_msg", "ns", "lower", 0},
	{"wire.decode_ns_per_msg", "ns", "lower", 0},
	{"wire.allocs_per_msg", "count", "lower", 0},
	{"wire.size_ns_per_msg", "ns", "lower", 0},
	{"wire.bytes_per_op", "B", "lower", 0},
	{"wire.msgs_per_datagram", "count", "higher", 0},

	{"transport.us_per_datagram", "us", "lower", 0},
	{"transport.floor_us_per_datagram", "us", "lower", 0},
	{"transport.do_wait_us_p50", "us", "lower", 0},
	{"transport.shed_per_op", "count", "lower", 0},
	{"transport.send_errors", "count", "lower", 0},

	{"dht.get_ns_local", "ns", "lower", 0},
	{"dht.put_ns_local", "ns", "lower", 0},
	{"dht.msgs_per_get", "count", "lower", 0},
	{"dht.msgs_per_put", "count", "lower", 0},
	{"dht.handler_self_us_per_op", "us", "lower", 0},
	{"dht.retries_per_op", "count", "lower", 0},

	{"store.apply_ns", "ns", "lower", 0},
	{"store.get_ns", "ns", "lower", 0},
	{"store.calls_per_op", "count", "lower", 0},
	{"store.self_us_per_op", "us", "lower", 0},

	{"telemetry.observe_ns", "ns", "lower", 0},
	{"telemetry.self_share", "ratio", "lower", 0},
	{"stats.self_share", "ratio", "lower", 0},

	{"harness.overhead_share", "ratio", "lower", 0},

	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.gc_cycles_per_s", "1/s", "lower", 0},

	{"bench.self_share", "ratio", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}

// partitionShares are the *_share metrics that split one traced run's time
// (sim-*) or its messages (live-*) among the layers; they sum to 1. The
// remaining shares (harness.overhead_share, trace.overhead_share,
// runtime.gc_cpu_share) are ratios over bases of their own.
var partitionShares = []string{
	"eventsim.self_share", "netmodel.self_share",
	"pastry.route_share", "pastry.maint_share",
	"telemetry.self_share", "stats.self_share", "bench.self_share",
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name fits the driver's rule: at most 64
// letters, digits, '_', '.' and '-', starting with a letter or digit.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// value is one measured metric as it appears in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect picks the metrics named by defs out of got. An end-to-end metric
// that was not measured is a bug in the workload; a per-layer metric that
// was not measured does not exist on this workload and reads 0
// (zeroMissing).
func collect(defs []metricDef, got map[string]float64, zeroMissing bool) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok && !zeroMissing {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}
