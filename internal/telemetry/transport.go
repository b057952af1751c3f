package telemetry

import (
	"time"

	"mspastry/internal/overload"
	"mspastry/internal/pastry"
)

// TransportMetrics records the transport's wire activity: per-message
// traffic by category, bytes each way, and error counts. A datagram
// carries one message, so the message families count datagrams too. It
// satisfies the transport package's MetricsSink interface (which is
// defined there to keep the transport dependency-free); install it with
// SetMetricsSink.
type TransportMetrics struct{ m transportMetrics }

// transportMetrics are the families a TransportMetrics records into
// (fields exported so that Register can set them).
type transportMetrics struct {
	SentMsgs     *CounterVec `metric:"mspastry_transport_msgs_sent_total" help:"Messages written to the socket, one datagram each, by traffic category." label:"category"`
	RecvMsgs     *CounterVec `metric:"mspastry_transport_msgs_received_total" help:"Well-formed messages decoded from received frames, by traffic category." label:"category"`
	SentBytes    *Counter    `metric:"mspastry_transport_bytes_sent_total" help:"Encoded frame bytes written to the socket."`
	RecvBytes    *Counter    `metric:"mspastry_transport_bytes_received_total" help:"Frame bytes of received datagrams whose message decoded."`
	SendErrors   *Counter    `metric:"mspastry_transport_send_errors_total" help:"Failed sends: unresolvable addresses, oversized messages, socket errors."`
	DecodeErrors *Counter    `metric:"mspastry_transport_decode_errors_total" help:"Received datagrams dropped as malformed: a bad frame or a message that does not decode."`
	ShedMsgs     *CounterVec `metric:"mspastry_transport_msgs_shed_total" help:"Messages shed by the bounded inbound queue, by priority lane." label:"lane"`
	Panics       *Counter    `metric:"mspastry_transport_handler_panics_total" help:"Message-handler panics contained by the receive loop."`
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
	t.m.SentBytes.Add(uint64(bytes))
}

// MsgReceived implements transport.MetricsSink.
func (t *TransportMetrics) MsgReceived(cat pastry.Category, bytes int) {
	t.m.RecvMsgs.With(cat.String()).Inc()
	t.m.RecvBytes.Add(uint64(bytes))
}

// DatagramSent implements transport.MetricsSink. It records nothing: the
// datagram's one message and its bytes are MsgSent's.
func (t *TransportMetrics) DatagramSent(int, int, int, time.Duration) {}

// DatagramReceived implements transport.MetricsSink. It records nothing:
// the datagram's one message and its bytes are MsgReceived's.
func (t *TransportMetrics) DatagramReceived(int, int) {}

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
