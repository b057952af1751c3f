package pastry

import (
	"fmt"

	"mspastry/internal/codec"
)

// Wire format: a 1-byte message tag followed by the message fields in a
// fixed order, each encoded as internal/codec encodes its type. The
// message format itself is versionless; versioning lives one layer down,
// in the internal/wire frame header that every transported message is
// wrapped in (see DESIGN.md "Wire format").

const (
	tagLookupEnvelope byte = iota + 1
	tagAck
	tagLSProbe
	tagLSProbeReply
	tagHeartbeat
	tagRTProbe
	tagRTProbeReply
	tagJoinReply
	tagDistProbe
	tagDistProbeReply
	tagDistReport
	tagRowRequest
	tagRowReply
	tagRowAnnounce
	tagRepairRequest
	tagRepairReply
	tagNNStateRequest
	tagNNStateReply
	tagAppDirect
)

// maxWireSlice bounds decoded slice and address lengths, and maxPayload
// decoded payloads, to keep a malformed or malicious packet from causing
// huge allocations.
const (
	maxWireSlice = 4096
	maxPayload   = 1 << 20
)

// newMessage maps a wire tag to an empty message for walk to fill.
var newMessage = [...]func() Message{
	tagLookupEnvelope: func() Message { return newReceived() },
	tagAck:            func() Message { return new(Ack) },
	tagLSProbe:        func() Message { return newLSProbe() },
	tagLSProbeReply:   func() Message { return new(LSProbeReply) },
	tagHeartbeat:      func() Message { return new(Heartbeat) },
	tagRTProbe:        func() Message { return newRTProbe() },
	tagRTProbeReply:   func() Message { return new(RTProbeReply) },
	tagJoinReply:      func() Message { return new(JoinReply) },
	tagDistProbe:      func() Message { return newDistProbe() },
	tagDistProbeReply: func() Message { return new(DistProbeReply) },
	tagDistReport:     func() Message { return new(DistReport) },
	tagRowRequest:     func() Message { return new(RowRequest) },
	tagRowReply:       func() Message { return new(RowReply) },
	tagRowAnnounce:    func() Message { return new(RowAnnounce) },
	tagRepairRequest:  func() Message { return new(RepairRequest) },
	tagRepairReply:    func() Message { return new(RepairReply) },
	tagNNStateRequest: func() Message { return new(NNStateRequest) },
	tagNNStateReply:   func() Message { return new(NNStateReply) },
	tagAppDirect:      func() Message { return new(AppDirect) },
}

// walk is the one wire description of every message: its tag, then its
// fields in wire order. Encoding, sizing and decoding are this walk run
// over a codec.Coder in a different mode. It panics on unknown message
// types (a programming error). The type switch, not a method on Message,
// is what keeps the calls static and the Coder on the caller's stack.
func walk(c *codec.Coder, m Message) {
	switch m := m.(type) {
	case *Envelope:
		c.Tag(tagLookupEnvelope)
		c.Uvarint(&m.Xfer)
		c.Bool(&m.NeedAck)
		c.Bool(&m.Retx)
		walkRef(c, &m.From)
		c.Duration(&m.TrtHint)
		if present(c, &m.Lookup) {
			c.ID(&m.Lookup.Key)
			c.Uvarint(&m.Lookup.Seq)
			c.Uvarint(&m.Lookup.TraceID)
			walkRef(c, &m.Lookup.Origin)
			c.Duration(&m.Lookup.Issued)
			c.Int(&m.Lookup.Hops)
			c.Bool(&m.Lookup.NoAck)
			c.Blob(&m.Lookup.Payload, maxPayload)
		}
		if present(c, &m.Join) {
			walkRef(c, &m.Join.Joiner)
			walkRefs(c, &m.Join.Rows)
			c.Int(&m.Join.Hops)
		}
	case *Ack:
		c.Tag(tagAck)
		c.Uvarint(&m.Xfer)
		walkRef(c, &m.From)
		c.Duration(&m.TrtHint)
	case *LSProbe:
		c.Tag(tagLSProbe)
		walkRef(c, &m.From)
		walkRefs(c, &m.Leaves)
		walkRefs(c, &m.Failed)
		c.Bool(&m.NeedNear)
		c.Duration(&m.TrtHint)
	case *LSProbeReply:
		c.Tag(tagLSProbeReply)
		walkRef(c, &m.From)
		walkRefs(c, &m.Leaves)
		walkRefs(c, &m.Failed)
		walkRefs(c, &m.Near)
		c.Duration(&m.TrtHint)
	case *Heartbeat:
		c.Tag(tagHeartbeat)
		walkRef(c, &m.From)
		c.Duration(&m.TrtHint)
	case *RTProbe:
		c.Tag(tagRTProbe)
		walkRef(c, &m.From)
		c.Duration(&m.TrtHint)
	case *RTProbeReply:
		c.Tag(tagRTProbeReply)
		walkRef(c, &m.From)
		c.Duration(&m.TrtHint)
	case *JoinReply:
		c.Tag(tagJoinReply)
		walkRefs(c, &m.Rows)
		walkRefs(c, &m.Leaves)
	case *DistProbe:
		c.Tag(tagDistProbe)
		walkRef(c, &m.From)
		c.Uvarint(&m.Seq)
	case *DistProbeReply:
		c.Tag(tagDistProbeReply)
		walkRef(c, &m.From)
		c.Uvarint(&m.Seq)
	case *DistReport:
		c.Tag(tagDistReport)
		walkRef(c, &m.From)
		c.Duration(&m.RTT)
	case *RowRequest:
		c.Tag(tagRowRequest)
		walkRef(c, &m.From)
		c.Int(&m.Row)
	case *RowReply:
		c.Tag(tagRowReply)
		walkRef(c, &m.From)
		c.Int(&m.Row)
		walkRefs(c, &m.Entries)
	case *RowAnnounce:
		c.Tag(tagRowAnnounce)
		walkRef(c, &m.From)
		c.Int(&m.Row)
		walkRefs(c, &m.Entries)
	case *RepairRequest:
		c.Tag(tagRepairRequest)
		walkRef(c, &m.From)
		c.Int(&m.Row)
		c.Int(&m.Col)
	case *RepairReply:
		c.Tag(tagRepairReply)
		walkRef(c, &m.From)
		c.Int(&m.Row)
		c.Int(&m.Col)
		walkRefs(c, &m.Entries)
	case *NNStateRequest:
		c.Tag(tagNNStateRequest)
		walkRef(c, &m.From)
	case *NNStateReply:
		c.Tag(tagNNStateReply)
		walkRef(c, &m.From)
		walkRefs(c, &m.Leaves)
		walkRefs(c, &m.Entries)
	case *AppDirect:
		c.Tag(tagAppDirect)
		walkRef(c, &m.From)
		c.Blob(&m.Payload, maxPayload)
	default:
		panic(fmt.Sprintf("pastry: no wire format for %T", m))
	}
}

func walkRef(c *codec.Coder, r *NodeRef) {
	c.ID(&r.ID)
	c.String(&r.Addr, maxWireSlice)
}

func walkRefs(c *codec.Coder, refs *[]NodeRef) {
	elems := codec.Slice(c, refs, maxWireSlice)
	for i := range elems {
		walkRef(c, &elems[i])
	}
}

// present walks the presence byte of an optional part of a message. A
// reader that finds the part present allocates it unless the message came
// with it (a received envelope's inline Lookup), and clears the pointer
// when the part is absent.
func present[T any](c *codec.Coder, part **T) bool {
	has := *part != nil
	c.Bool(&has)
	switch {
	case !has:
		*part = nil
	case *part == nil:
		*part = new(T)
	}
	return has
}

// AppendMessage serialises a message onto buf and returns the extended
// slice, allocating only when buf's capacity is exhausted.
func AppendMessage(buf []byte, m Message) []byte {
	c := codec.Appender(buf)
	walk(&c, m)
	return c.Bytes()
}

// MessageWireSize returns len(AppendMessage(nil, m)) — the encoded size
// of a message — without encoding anything. The simulator charges every
// send its single-frame size through this function, so it sits on the
// hottest path in the process.
func MessageWireSize(m Message) int {
	var c codec.Coder
	walk(&c, m)
	return c.Size()
}

// DecodeMessage parses a wire message.
func DecodeMessage(buf []byte) (Message, error) { return DecodeInterned(buf, nil) }

// DecodeInterned is DecodeMessage with every NodeRef.Addr read through
// names (nil for none): a transport's read loop sees the same few dozen
// peer addresses in every message and need not allocate them each time.
func DecodeInterned(buf []byte, names *codec.Interner) (Message, error) {
	if len(buf) == 0 || int(buf[0]) >= len(newMessage) || newMessage[buf[0]] == nil {
		return nil, fmt.Errorf("pastry: unknown message tag %x", buf[:min(len(buf), 1)])
	}
	tag := buf[0]
	m := newMessage[tag]()
	c := codec.InterningReader(buf, names)
	walk(&c, m)
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("pastry: decode tag %d: %w", tag, err)
	}
	return m, nil
}
