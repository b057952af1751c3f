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
type TransportMetrics struct{ m transportMetrics }

// transportMetrics are the families a TransportMetrics records into
// (fields exported so that Register can set them).
type transportMetrics struct {
	SentMsgs      *CounterVec `metric:"mspastry_transport_msgs_sent_total" help:"Messages accepted for transmission, by traffic category." label:"category"`
	RecvMsgs      *CounterVec `metric:"mspastry_transport_msgs_received_total" help:"Well-formed messages decoded from received frames, by traffic category." label:"category"`
	SentDatagrams *Counter    `metric:"mspastry_transport_datagrams_sent_total" help:"Frames written to the socket; a coalesced batch is one datagram."`
	SentBytes     *Counter    `metric:"mspastry_transport_bytes_sent_total" help:"Encoded frame bytes written to the socket."`
	RecvDatagrams *Counter    `metric:"mspastry_transport_datagrams_received_total" help:"Structurally valid frames received."`
	RecvBytes     *Counter    `metric:"mspastry_transport_bytes_received_total" help:"Frame bytes of structurally valid datagrams received."`
	SavedBytes    *Counter    `metric:"mspastry_transport_coalesced_bytes_saved_total" help:"Bytes saved by batching versus sending every message as its own frame."`
	BatchSize     *Histogram  `metric:"mspastry_transport_msgs_per_datagram" help:"Messages per sent datagram." buckets:"BatchBuckets"`
	RecvBatch     *Histogram  `metric:"mspastry_transport_msgs_per_datagram_received" help:"Messages per received datagram." buckets:"BatchBuckets"`
	FlushHold     *Histogram  `metric:"mspastry_transport_flush_hold_seconds" help:"How long a sent frame's oldest message waited for the coalescing window." buckets:"HoldBuckets"`
	SendErrors    *Counter    `metric:"mspastry_transport_send_errors_total" help:"Failed sends: unresolvable addresses, oversized messages, socket errors."`
	DecodeErrors  *Counter    `metric:"mspastry_transport_decode_errors_total" help:"Malformed frames, and malformed messages inside otherwise valid batches."`
	ShedMsgs      *CounterVec `metric:"mspastry_transport_msgs_shed_total" help:"Messages shed by the bounded inbound queue, by priority lane." label:"lane"`
	Panics        *Counter    `metric:"mspastry_transport_handler_panics_total" help:"Message-handler panics contained by the receive loop."`
}

// NewTransportMetrics registers the transport metric families in reg.
func NewTransportMetrics(reg *Registry) *TransportMetrics {
	t := &TransportMetrics{}
	reg.Register(&t.m)
	return t
}

// MsgSent implements transport.MetricsSink.
func (t *TransportMetrics) MsgSent(cat pastry.Category, bytes int) {
	t.m.SentMsgs.With(cat.String()).Inc()
}

// MsgReceived implements transport.MetricsSink.
func (t *TransportMetrics) MsgReceived(cat pastry.Category, bytes int) {
	t.m.RecvMsgs.With(cat.String()).Inc()
}

// DatagramSent implements transport.MetricsSink.
func (t *TransportMetrics) DatagramSent(bytes, msgs, savedBytes int, held time.Duration) {
	t.m.SentDatagrams.Inc()
	t.m.SentBytes.Add(uint64(bytes))
	if savedBytes > 0 {
		t.m.SavedBytes.Add(uint64(savedBytes))
	}
	t.m.BatchSize.Observe(float64(msgs))
	t.m.FlushHold.Observe(held.Seconds())
}

// DatagramReceived implements transport.MetricsSink.
func (t *TransportMetrics) DatagramReceived(bytes, msgs int) {
	t.m.RecvDatagrams.Inc()
	t.m.RecvBytes.Add(uint64(bytes))
	t.m.RecvBatch.Observe(float64(msgs))
}

// SendError implements transport.MetricsSink.
func (t *TransportMetrics) SendError() { t.m.SendErrors.Inc() }

// DecodeError implements transport.MetricsSink.
func (t *TransportMetrics) DecodeError() { t.m.DecodeErrors.Inc() }

// MsgShed implements transport.MetricsSink.
func (t *TransportMetrics) MsgShed(lane overload.Lane) {
	t.m.ShedMsgs.With(lane.String()).Inc()
}

// HandlerPanic implements transport.MetricsSink.
func (t *TransportMetrics) HandlerPanic() { t.m.Panics.Inc() }
