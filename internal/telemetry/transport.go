package telemetry

import (
	"time"

	"mspastry/internal/dht"
	"mspastry/internal/hotspot"
	"mspastry/internal/overload"
	"mspastry/internal/pastry"
	"mspastry/internal/store"
)

// BatchBuckets count messages per coalesced datagram.
var BatchBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64}

// HoldBuckets measure how long a coalesced message waited for its flush,
// in seconds — sub-millisecond to the largest sensible windows.
var HoldBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// TransportMetrics records the transport's wire activity: per-message
// traffic by category, per-datagram frame economy (messages per datagram,
// bytes saved by coalescing, flush hold latency) and error counts. It
// satisfies the transport package's MetricsSink interface (which is
// defined there to keep the transport dependency-free); install it with
// SetMetricsSink.
type TransportMetrics struct {
	sentMsgs      *CounterVec
	recvMsgs      *CounterVec
	sentDatagrams *Counter
	sentBytes     *Counter
	recvDatagrams *Counter
	recvBytes     *Counter
	savedBytes    *Counter
	batchSize     *Histogram
	recvBatch     *Histogram
	flushHold     *Histogram
	sendErrors    *Counter
	decodeError   *Counter
	shedMsgs      *CounterVec
	panics        *Counter
}

// NewTransportMetrics registers the transport metric families in reg.
func NewTransportMetrics(reg *Registry) *TransportMetrics {
	return &TransportMetrics{
		sentMsgs: reg.CounterVec("mspastry_transport_msgs_sent_total",
			"Messages accepted for transmission, by traffic category.", "category"),
		recvMsgs: reg.CounterVec("mspastry_transport_msgs_received_total",
			"Well-formed messages decoded from received frames, by traffic category.", "category"),
		sentDatagrams: reg.Counter("mspastry_transport_datagrams_sent_total",
			"Frames written to the socket; a coalesced batch is one datagram."),
		sentBytes: reg.Counter("mspastry_transport_bytes_sent_total",
			"Encoded frame bytes written to the socket."),
		recvDatagrams: reg.Counter("mspastry_transport_datagrams_received_total",
			"Structurally valid frames received."),
		recvBytes: reg.Counter("mspastry_transport_bytes_received_total",
			"Frame bytes of structurally valid datagrams received."),
		savedBytes: reg.Counter("mspastry_transport_coalesced_bytes_saved_total",
			"Bytes saved by batching versus sending every message as its own frame."),
		batchSize: reg.Histogram("mspastry_transport_msgs_per_datagram",
			"Messages per sent datagram.", BatchBuckets),
		recvBatch: reg.Histogram("mspastry_transport_msgs_per_datagram_received",
			"Messages per received datagram.", BatchBuckets),
		flushHold: reg.Histogram("mspastry_transport_flush_hold_seconds",
			"How long a sent frame's oldest message waited for the coalescing window.", HoldBuckets),
		sendErrors: reg.Counter("mspastry_transport_send_errors_total",
			"Failed sends: unresolvable addresses, oversized messages, socket errors."),
		decodeError: reg.Counter("mspastry_transport_decode_errors_total",
			"Malformed frames, and malformed messages inside otherwise valid batches."),
		shedMsgs: reg.CounterVec("mspastry_transport_msgs_shed_total",
			"Messages shed by the bounded inbound queue, by priority lane.", "lane"),
		panics: reg.Counter("mspastry_transport_handler_panics_total",
			"Message-handler panics contained by the receive loop."),
	}
}

// MsgSent implements transport.MetricsSink.
func (m *TransportMetrics) MsgSent(cat pastry.Category, bytes int) {
	m.sentMsgs.With(cat.String()).Inc()
}

// MsgReceived implements transport.MetricsSink.
func (m *TransportMetrics) MsgReceived(cat pastry.Category, bytes int) {
	m.recvMsgs.With(cat.String()).Inc()
}

// DatagramSent implements transport.MetricsSink.
func (m *TransportMetrics) DatagramSent(bytes, msgs, savedBytes int, held time.Duration) {
	m.sentDatagrams.Inc()
	m.sentBytes.Add(uint64(bytes))
	if savedBytes > 0 {
		m.savedBytes.Add(uint64(savedBytes))
	}
	m.batchSize.Observe(float64(msgs))
	m.flushHold.Observe(held.Seconds())
}

// DatagramReceived implements transport.MetricsSink.
func (m *TransportMetrics) DatagramReceived(bytes, msgs int) {
	m.recvDatagrams.Inc()
	m.recvBytes.Add(uint64(bytes))
	m.recvBatch.Observe(float64(msgs))
}

// SendError implements transport.MetricsSink.
func (m *TransportMetrics) SendError() { m.sendErrors.Inc() }

// DecodeError implements transport.MetricsSink.
func (m *TransportMetrics) DecodeError() { m.decodeError.Inc() }

// MsgShed implements transport.MetricsSink.
func (m *TransportMetrics) MsgShed(lane overload.Lane) {
	m.shedMsgs.With(lane.String()).Inc()
}

// HandlerPanic implements transport.MetricsSink.
func (m *TransportMetrics) HandlerPanic() { m.panics.Inc() }

// RecordDHTCounters copies a DHT store's tallies into the registry as
// gauges (put/get outcomes, end-to-end retries, replica pushes, sweeps).
// Run it from a Registry.OnCollect hook so every scrape sees fresh values.
func RecordDHTCounters(reg *Registry, c dht.Counters, localObjects int) {
	set := func(name, help string, v float64) {
		reg.Gauge(name, help).Set(v)
	}
	set("mspastry_dht_puts", "DHT put operations started.", float64(c.Puts))
	set("mspastry_dht_put_ok", "DHT puts acknowledged end-to-end.", float64(c.PutOK))
	set("mspastry_dht_put_failures", "DHT puts that exhausted retries.", float64(c.PutFail))
	set("mspastry_dht_gets", "DHT get operations started.", float64(c.Gets))
	set("mspastry_dht_get_ok", "DHT gets that returned a value.", float64(c.GetOK))
	set("mspastry_dht_get_notfound", "DHT gets for absent keys.", float64(c.GetNotFound))
	set("mspastry_dht_get_failures", "DHT gets that exhausted retries.", float64(c.GetFail))
	set("mspastry_dht_deletes", "DHT delete operations started.", float64(c.Deletes))
	set("mspastry_dht_delete_ok", "DHT deletes acknowledged end-to-end.", float64(c.DeleteOK))
	set("mspastry_dht_delete_failures", "DHT deletes that exhausted retries.", float64(c.DeleteFail))
	set("mspastry_dht_retries", "End-to-end request retransmissions.", float64(c.Retries))
	set("mspastry_dht_replicas_pushed", "Full-value replica pushes to leaf-set neighbours.", float64(c.ReplicasPushed))
	set("mspastry_dht_replicas_applied", "Incoming replica values that changed local state.", float64(c.ReplicasApplied))
	set("mspastry_dht_sweeps", "Replica responsibility sweeps run.", float64(c.Sweeps))
	set("mspastry_dht_sweep_handoffs", "Objects handed off and dropped by sweeps.", float64(c.SweepHandoffs))
	set("mspastry_dht_sync_rounds", "Anti-entropy exchanges started.", float64(c.SyncRounds))
	set("mspastry_dht_sync_clean", "Anti-entropy exchanges where root digests matched.", float64(c.SyncClean))
	set("mspastry_dht_sync_keys_repaired", "Divergent objects sent as anti-entropy repairs.", float64(c.SyncKeysRepaired))
	set("mspastry_dht_sync_digest_bytes", "Anti-entropy and handoff control bytes sent.", float64(c.DigestBytes))
	set("mspastry_dht_maintenance_bytes", "All sweep maintenance bytes sent (control plus repair values).", float64(c.MaintBytes))
	set("mspastry_dht_local_objects", "Objects currently stored on this node.", float64(localObjects))
	set("mspastry_dht_cache_hits_local", "Gets answered from this node's own hotspot cache.", float64(c.CacheHitsLocal))
	set("mspastry_dht_cache_hits_remote", "Gets answered by a caching hop short-circuiting the route.", float64(c.CacheHitsRemote))
	set("mspastry_dht_cache_serves", "Lookups this node answered from its cache for other nodes.", float64(c.CacheServes))
	set("mspastry_dht_cache_deposits", "Entries this node deposited on caching hops as a root.", float64(c.CacheDeposits))
	set("mspastry_dht_cache_invalidations", "Invalidations sent to caching hops after writes.", float64(c.CacheInvalidations))
	set("mspastry_dht_cache_purged", "Cached entries evicted by the sweep staleness backstop.", float64(c.CachePurged))
	set("mspastry_dht_cache_stale_rejected", "Cached replies refused for violating the monotonic read floor.", float64(c.CacheStaleRejected))
}

// RecordHotspotStats copies the hotspot cache's internal counters into
// the registry (hit ratio, admission outcomes, sketch occupancy). Run
// it from a Registry.OnCollect hook alongside RecordDHTCounters when
// caching is enabled.
func RecordHotspotStats(reg *Registry, st hotspot.Stats) {
	set := func(name, help string, v float64) {
		reg.Gauge(name, help).Set(v)
	}
	set("mspastry_hotspot_cache_entries", "Entries currently in the hotspot cache.", float64(st.Entries))
	set("mspastry_hotspot_cache_capacity", "Configured hotspot cache capacity.", float64(st.Capacity))
	set("mspastry_hotspot_cache_hits", "Hotspot cache lookup hits.", float64(st.Hits))
	set("mspastry_hotspot_cache_misses", "Hotspot cache lookup misses.", float64(st.Misses))
	set("mspastry_hotspot_cache_hit_ratio", "Hotspot cache hit ratio (hits over hits plus misses).", st.HitRatio())
	set("mspastry_hotspot_cache_admitted", "Entries admitted by the TinyLFU filter.", float64(st.Admitted))
	set("mspastry_hotspot_cache_rejected", "Entries rejected by the TinyLFU filter.", float64(st.Rejected))
	set("mspastry_hotspot_cache_evictions", "Entries evicted by segmented-LRU pressure.", float64(st.Evictions))
	set("mspastry_hotspot_cache_invalidations", "Entries dropped by version supersession.", float64(st.Invalidations))
	set("mspastry_hotspot_cache_purged_total", "Entries dropped by the sweep staleness backstop.", float64(st.Purged))
	set("mspastry_hotspot_sketch_occupancy", "Fraction of non-zero popularity sketch counters.", st.SketchOccupancy)
}

// RecordStoreStats copies the object-store backend's state into the
// registry (WAL and snapshot sizes, compactions, tombstones). Run it from
// a Registry.OnCollect hook alongside RecordDHTCounters.
func RecordStoreStats(reg *Registry, st store.Stats) {
	set := func(name, help string, v float64) {
		reg.Gauge(name, help).Set(v)
	}
	set("mspastry_store_objects", "Live objects in the backend.", float64(st.Objects))
	set("mspastry_store_tombstones", "Tombstones retained for delete propagation.", float64(st.Tombstones))
	set("mspastry_store_wal_bytes", "Write-ahead log size on disk (0 for the memory backend).", float64(st.WALBytes))
	set("mspastry_store_snapshot_bytes", "Last snapshot size on disk.", float64(st.SnapshotBytes))
	set("mspastry_store_compactions", "Snapshot compactions performed.", float64(st.Compactions))
	set("mspastry_store_replayed_records", "Records replayed from disk at open.", float64(st.Replayed))
}
