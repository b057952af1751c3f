// Command mspastry-node runs one live MSPastry node over UDP, optionally
// with the replicated key-value store on top, and takes commands on stdin.
// It is the deployment counterpart of the simulator: the same protocol
// code, real sockets — and the same telemetry, so the metric names on
// /metrics match what the simulator emits.
//
// Start a two-node overlay on one machine:
//
//	mspastry-node -listen 127.0.0.1:7001 -admin 127.0.0.1:8081 -bootstrap
//	# note the printed "id=<hex>" line, then in another terminal:
//	mspastry-node -listen 127.0.0.1:7002 -seed-addr 127.0.0.1:7001 -seed-id <hex>
//
// The admin listener serves /metrics (Prometheus text), /status (JSON leaf
// set, routing table and counters), /debug/events (the node's most recent
// telemetry events: lookups issued, forwarded, delivered and dropped, ack
// round trips, leaf-set repairs) and /debug/pprof. The stdout status
// command, /status and /metrics all read from the same telemetry registry,
// so they cannot disagree.
//
// Commands on stdin:
//
//	put <key> <value...>   store a value in the DHT
//	get <key>              fetch a value
//	del <key>              delete a value (tombstoned, propagates)
//	lookup <key>           route a bare lookup (delivery logged at the root)
//	slookup <key>          route a secure lookup (needs -secure-routing: the
//	                       root's completion report runs the failure test)
//	status                 print leaf set, routing table and counters
//	quit                   leave (crash-stop) and exit
//
// With -data-dir the DHT store is disk-backed: every write lands in a
// CRC-framed write-ahead log before it is acknowledged, so objects this
// node holds survive a restart and re-enter replication through the
// anti-entropy sweeps.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mspastry/internal/admin"
	"mspastry/internal/dht"
	"mspastry/internal/id"
	"mspastry/internal/pastry"
	"mspastry/internal/secure"
	objstore "mspastry/internal/store"
	"mspastry/internal/telemetry"
	"mspastry/internal/transport"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit code: 2 for a rejected command line (no socket has been opened
// yet), 1 for a failure once running. The node's event loop logs protocol
// events to stdout while the command loop prints results, so stdout must
// be safe for concurrent writes, as an *os.File is.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mspastry-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen    = fs.String("listen", "127.0.0.1:0", "UDP listen address")
		adminAddr = fs.String("admin", "", "HTTP admin listen address for /metrics, /status, /debug/events and /debug/pprof (empty = off)")
		bootstrap = fs.Bool("bootstrap", false, "start a new overlay instead of joining")
		seedAddr  = fs.String("seed-addr", "", "seed node address (host:port)")
		seedID    = fs.String("seed-id", "", "seed node identifier (32 hex digits)")
		nodeID    = fs.String("id", "", "this node's identifier (default: random)")
		dataDir   = fs.String("data-dir", "", "directory for the durable object store (empty = in-memory)")
		inQueue   = fs.Int("inbound-queue", 0, "bound inbound work at this many messages, shedding lowest-priority-first (0 = unbounded)")
		secRoute  = fs.Bool("secure-routing", false, "run the routing failure test on lookups issued with slookup, with redundant diverse-path retries")
		cacheEnt  = fs.Int("cache-entries", 0, "hotspot read-cache capacity in entries (0 = caching off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return code
	}

	// A typo'd flag must die here with a clear message, not surface later
	// as a panicking queue constructor.
	var self, sid id.ID
	var err error
	switch {
	case *inQueue < 0:
		return fail(2, "-inbound-queue must be >= 0, got %d", *inQueue)
	case *cacheEnt < 0:
		return fail(2, "-cache-entries must be >= 0, got %d", *cacheEnt)
	case !*bootstrap && (*seedAddr == "" || *seedID == ""):
		return fail(2, "need -bootstrap, or -seed-addr and -seed-id")
	}
	if *nodeID != "" {
		if self, err = id.Parse(*nodeID); err != nil {
			return fail(2, "-id: %v", err)
		}
	}
	if !*bootstrap {
		if sid, err = id.Parse(*seedID); err != nil {
			return fail(2, "-seed-id: %v", err)
		}
	}

	tr, err := transport.Listen(*listen, time.Now().UnixNano())
	if err != nil {
		return fail(1, "%v", err)
	}
	defer tr.Close()
	tr.SetInboundQueue(*inQueue)

	// One registry backs every view of this node: the Prometheus endpoint,
	// the JSON status and the stdout status command.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(256)
	obs := telemetry.NewOverlay(reg, tracer, telemetry.OverlayOptions{Inner: logObserver{stdout}})
	tr.SetMetricsSink(telemetry.NewTransportMetrics(reg))

	node, err := tr.CreateNode(self, pastry.DefaultConfig(), obs)
	if err != nil {
		return fail(1, "%v", err)
	}
	dhtCfg := dht.DefaultConfig()
	dhtCfg.CacheEntries = *cacheEnt
	if *dataDir != "" {
		// SyncEvery 1 fsyncs each write before the put is acknowledged:
		// the node is a durability demo first, a throughput demo second.
		backend, err := objstore.Open(*dataDir, objstore.DiskOptions{SyncEvery: 1})
		if err != nil {
			return fail(1, "%v", err)
		}
		if replayed := backend.Stats().Replayed; replayed > 0 {
			fmt.Fprintf(stdout, "recovered %d records from %s (%d live objects)\n",
				replayed, *dataDir, backend.Len())
		}
		dhtCfg.Backend = backend
	}
	var store *dht.Store
	var layer *secure.Layer // the secure-routing layer over the store, with -secure-routing
	tr.DoSync(func(n *pastry.Node) {
		store = dht.New(n, tr.Env(), dhtCfg)
		if *secRoute {
			layer = secure.New(n, tr.Env(), store)
		}
	})

	collectGauges(reg, tr, store, layer, *cacheEnt > 0)

	fmt.Fprintf(stdout, "node up: addr=%s id=%s\n", tr.Addr(), node.Ref().ID)

	var adm *admin.Server
	if *adminAddr != "" {
		adm, err = admin.Serve(*adminAddr, reg, admin.Options{
			Status: func() any { return statusSnapshot(tr, *dataDir != "") },
			Tracer: tracer,
		})
		if err != nil {
			return fail(1, "%v", err)
		}
		defer adm.Close()
		fmt.Fprintf(stdout, "admin endpoint: http://%s/metrics /status /debug/events /debug/pprof\n", adm.Addr())
	}

	if *bootstrap {
		tr.DoSync(func(n *pastry.Node) { n.Bootstrap() })
		fmt.Fprintln(stdout, "bootstrapped a new overlay")
	} else {
		ref := pastry.NodeRef{ID: sid, Addr: *seedAddr}
		tr.DoSync(func(n *pastry.Node) { n.Join(ref) })
		fmt.Fprintf(stdout, "joining via %s...\n", *seedAddr)
	}

	sc := bufio.NewScanner(stdin)
	fmt.Fprint(stdout, "> ")
loop:
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Fprint(stdout, "> ")
			continue
		}
		switch fields[0] {
		case "put":
			if len(fields) < 3 {
				fmt.Fprintln(stdout, "usage: put <key> <value...>")
				break
			}
			key := id.FromKey(fields[1])
			value := []byte(strings.Join(fields[2:], " "))
			done := make(chan error, 1)
			tr.Do(func(*pastry.Node) {
				store.Put(key, value, func(err error) { done <- err })
			})
			if err := <-done; err != nil {
				fmt.Fprintf(stdout, "put failed: %v\n", err)
			} else {
				fmt.Fprintf(stdout, "stored %q (key %s)\n", fields[1], key)
			}
		case "get":
			if len(fields) != 2 {
				fmt.Fprintln(stdout, "usage: get <key>")
				break
			}
			key := id.FromKey(fields[1])
			type result struct {
				v   []byte
				err error
			}
			done := make(chan result, 1)
			tr.Do(func(*pastry.Node) {
				store.Get(key, func(v []byte, err error) { done <- result{v, err} })
			})
			res := <-done
			if res.err != nil {
				fmt.Fprintf(stdout, "get failed: %v\n", res.err)
			} else {
				fmt.Fprintf(stdout, "%s\n", res.v)
			}
		case "del":
			if len(fields) != 2 {
				fmt.Fprintln(stdout, "usage: del <key>")
				break
			}
			key := id.FromKey(fields[1])
			done := make(chan error, 1)
			tr.Do(func(*pastry.Node) {
				store.Delete(key, func(err error) { done <- err })
			})
			if err := <-done; err != nil {
				fmt.Fprintf(stdout, "del failed: %v\n", err)
			} else {
				fmt.Fprintf(stdout, "deleted %q (key %s)\n", fields[1], key)
			}
		case "lookup":
			if len(fields) != 2 {
				fmt.Fprintln(stdout, "usage: lookup <key>")
				break
			}
			key := id.FromKey(fields[1])
			tr.Do(func(n *pastry.Node) { n.Lookup(key, nil) })
			fmt.Fprintf(stdout, "lookup for %s routed (the root logs the delivery)\n", key)
		case "slookup":
			if len(fields) != 2 {
				fmt.Fprintln(stdout, "usage: slookup <key>")
				break
			}
			if !*secRoute {
				fmt.Fprintln(stdout, "slookup needs -secure-routing")
				break
			}
			key := id.FromKey(fields[1])
			tr.Do(func(*pastry.Node) { layer.LookupRedundant(key) })
			fmt.Fprintf(stdout, "secure lookup for %s routed (root report checked on arrival)\n", key)
		case "status":
			printStatus(stdout, reg, tr, *dataDir != "")
		case "quit", "exit":
			fmt.Fprintln(stdout, "leaving the overlay")
			break loop
		default:
			fmt.Fprintln(stdout, "commands: put, get, del, lookup, slookup, status, quit")
		}
		fmt.Fprint(stdout, "> ")
	}
	// Flush the store from the event loop before the deferred cleanup
	// (shut the admin listener, close the transport) runs, so a
	// disk-backed WAL is complete on exit.
	tr.DoSync(func(*pastry.Node) { err = store.Close() })
	if err != nil {
		return fail(1, "closing the store: %v", err)
	}
	return 0
}

// collectGauges copies the tallies the node, its secure layer (nil for
// none: its gauges read zero), its DHT store, the store's backend and
// (with cache) the hotspot cache keep into reg's gauges at every scrape.
// It reads them in one trip onto the event loop, so every Snapshot and
// WritePrometheus sees mutually consistent values. Collect hooks run only
// from HTTP handlers and the stdin loop, never from the event loop itself.
func collectGauges(reg *telemetry.Registry, tr *transport.UDP, store *dht.Store, layer *secure.Layer, cache bool) {
	var g nodeGauges
	reg.Register(&g)
	reg.OnCollect(func() {
		tr.DoSync(func(n *pastry.Node) {
			if n == nil {
				return
			}
			reg.SetGauges(n.Stats())
			reg.SetGauges(layer.Stats())
			peers := n.PeerStats()
			reg.SetGauges(peers)
			for _, sl := range peers.Slots {
				g.SlotLive.With(sl.Name).Set(float64(sl.Live))
				g.SlotDropped.With(sl.Name).Set(float64(sl.Dropped))
			}
			reg.SetGauges(store.Counters())
			reg.SetGauges(store.StoreStats())
			if cache {
				reg.SetGauges(store.CacheStats())
			}
			reg.SetGauges(telemetry.Trt{Seconds: n.Trt().Seconds()})
		})
	})
}

// nodeGauges are the families a node sets at scrape time that no tally
// struct carries: the peer registry's per-slot counts.
type nodeGauges struct {
	SlotLive    *telemetry.GaugeVec `metric:"mspastry_peers_slot_live" help:"Records holding state in the component slot." label:"slot"`
	SlotDropped *telemetry.GaugeVec `metric:"mspastry_peers_slot_dropped_total" help:"Slot values cleared by pruning in the component slot." label:"slot"`
}

// nodeStatus is the /status JSON shape: what a node has that no metric
// carries. Every number with a metric is in the same response's metrics
// array instead.
type nodeStatus struct {
	ID             string         `json:"id"`
	Addr           string         `json:"addr"`
	Active         bool           `json:"active"`
	LeafLeft       []string       `json:"leaf_left"`
	LeafRight      []string       `json:"leaf_right"`
	RoutingEntries int            `json:"routing_entries"`
	RoutingRows    [][]string     `json:"routing_rows"`
	Durable        bool           `json:"durable"`
	Overload       overloadStatus `json:"overload"`
}

// overloadStatus reports the overload-protection layer on /status: the
// transport's inbound-queue load and the node's per-peer circuit breakers.
type overloadStatus struct {
	LoadFactor float64               `json:"load_factor"`
	Breakers   pastry.BreakerSummary `json:"breakers"`
}

func statusSnapshot(tr *transport.UDP, durable bool) nodeStatus {
	s := nodeStatus{Durable: durable}
	tr.DoSync(func(n *pastry.Node) {
		if n == nil {
			return
		}
		s.ID = n.Ref().ID.String()
		s.Addr = n.Ref().Addr
		s.Active = n.Active()
		for _, ref := range n.Leaf().Left() {
			s.LeafLeft = append(s.LeafLeft, ref.ID.String())
		}
		for _, ref := range n.Leaf().Right() {
			s.LeafRight = append(s.LeafRight, ref.ID.String())
		}
		rt := n.Table()
		s.RoutingEntries = rt.Count()
		for r := 0; r < rt.NumRows(); r++ {
			row := rt.Row(r)
			if len(row) == 0 {
				continue
			}
			ids := make([]string, 0, len(row))
			for _, ref := range row {
				ids = append(ids, ref.ID.String())
			}
			s.RoutingRows = append(s.RoutingRows, ids)
		}
		s.Overload = overloadStatus{LoadFactor: tr.LoadFactor(), Breakers: n.Breakers()}
	})
	return s
}

// printStatus renders the same data the admin endpoint serves: the node
// snapshot for what has no metric, and every number that has one read
// back from the telemetry registry.
func printStatus(stdout io.Writer, reg *telemetry.Registry, tr *transport.UDP, durable bool) {
	s := statusSnapshot(tr, durable)
	m := make(map[string]float64) // a labelled family's children sum under its name
	for _, mv := range reg.Snapshot() {
		if mv.Quantiles != nil {
			m[mv.Name+":count"] = float64(mv.Count)
		} else {
			m[mv.Name] += mv.Value
		}
	}
	fmt.Fprintf(stdout, "status: active=%v leaf=%d rt=%d trt=%s objects=%.0f\n",
		s.Active, len(s.LeafLeft)+len(s.LeafRight), s.RoutingEntries,
		time.Duration(m["mspastry_trt_seconds"]*float64(time.Second)).Round(time.Second),
		m["mspastry_store_objects"])
	if len(s.LeafLeft) > 0 {
		fmt.Fprintf(stdout, "  left  neighbour: %s\n", s.LeafLeft[0])
	}
	if len(s.LeafRight) > 0 {
		fmt.Fprintf(stdout, "  right neighbour: %s\n", s.LeafRight[0])
	}
	fmt.Fprintf(stdout, "  lookups: issued=%.0f delivered=%.0f  acks=%.0f  retransmits=%.0f timeouts=%.0f\n",
		m["mspastry_lookups_issued_total"], m["mspastry_lookup_hops:count"],
		m["mspastry_ack_rtt_seconds:count"], m["mspastry_hop_retransmits_total"], m["mspastry_node_retransmits"])
	fmt.Fprintf(stdout, "  transport: sent=%.0f recv=%.0f bytes_out=%.0f bytes_in=%.0f\n",
		m["mspastry_transport_msgs_sent_total"], m["mspastry_transport_msgs_received_total"],
		m["mspastry_transport_bytes_sent_total"], m["mspastry_transport_bytes_received_total"])
	fmt.Fprintf(stdout, "  dht: puts=%.0f gets=%.0f dels=%.0f retries=%.0f replicas=%.0f syncs=%.0f repaired=%.0f\n",
		m["mspastry_dht_puts"], m["mspastry_dht_gets"], m["mspastry_dht_deletes"],
		m["mspastry_dht_retries"], m["mspastry_dht_replicas_pushed"],
		m["mspastry_dht_sync_rounds"], m["mspastry_dht_sync_keys_repaired"])
	fmt.Fprintf(stdout, "  overload: load=%.2f shed=%.0f panics=%.0f breakers open=%d half-open=%d tripping=%d budget_dry=%.0f\n",
		s.Overload.LoadFactor, m["mspastry_transport_msgs_shed_total"],
		m["mspastry_transport_handler_panics_total"],
		s.Overload.Breakers.Open, s.Overload.Breakers.HalfOpen, s.Overload.Breakers.Tripping,
		m["mspastry_node_retry_budget_exhausted"])
	fmt.Fprintf(stdout, "  peers: live=%.0f (admitted=%.0f strangers=%.0f doomed=%.0f) sweeps=%.0f evicted=%.0f expelled=%.0f\n",
		m["mspastry_peers_live"], m["mspastry_peers_admitted"], m["mspastry_peers_strangers"],
		m["mspastry_peers_doomed"], m["mspastry_peers_sweeps_total"],
		m["mspastry_peers_evicted_strangers_total"]+m["mspastry_peers_evicted_admitted_total"],
		m["mspastry_peers_expelled_total"])
	if s.Durable {
		fmt.Fprintf(stdout, "  store: objects=%.0f tombstones=%.0f wal=%.0fB snapshot=%.0fB compactions=%.0f\n",
			m["mspastry_store_objects"], m["mspastry_store_tombstones"], m["mspastry_store_wal_bytes"],
			m["mspastry_store_snapshot_bytes"], m["mspastry_store_compactions"])
	}
}

// logObserver prints protocol events.
type logObserver struct{ stdout io.Writer }

func (o logObserver) Activated(n *pastry.Node, lat time.Duration) {
	fmt.Fprintf(o.stdout, "\nactive after %v (leaf set size %d)\n> ", lat.Round(time.Millisecond), n.Leaf().Size())
}

func (o logObserver) Delivered(n *pastry.Node, lk *pastry.Lookup) {
	if len(lk.Payload) == 0 || secure.IsRequest(lk.Payload) {
		fmt.Fprintf(o.stdout, "\ndelivered lookup for %s (from %s, %d hops)\n> ", lk.Key, lk.Origin.Addr, lk.Hops)
	}
}

func (o logObserver) LookupDropped(n *pastry.Node, lk *pastry.Lookup, reason pastry.DropReason) {
	fmt.Fprintf(o.stdout, "\ndropped lookup for %s: %s\n> ", lk.Key, reason)
}
