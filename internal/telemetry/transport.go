package telemetry

import (
	"time"

	"mspastry/internal/overload"
	"mspastry/internal/pastry"
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
