package pastry

import (
	"fmt"
	"testing"
	"time"

	"mspastry/internal/codec"
	"mspastry/internal/codec/codectest"
	"mspastry/internal/id"
)

func frameRef(n uint64) NodeRef {
	return NodeRef{ID: id.New(n<<56|n, ^n), Addr: fmt.Sprintf("10.0.0.%d:9000", n)}
}

func frameRefs(n int) []NodeRef {
	var out []NodeRef
	for i := 1; i <= n; i++ {
		out = append(out, frameRef(uint64(i)))
	}
	return out
}

// frameSamples has at least one message per wire tag, plus the shapes the
// field walk branches on: absent Lookup/Join, empty slices and payloads,
// and varints at their extremes.
var frameSamples = []struct {
	name string
	msg  Message
}{
	{"envelope-lookup", &Envelope{Xfer: 300, NeedAck: true, From: frameRef(1), TrtHint: 30 * time.Second,
		Lookup: &Lookup{Key: id.New(0xfeed, 0xbeef), Seq: 7, TraceID: 1 << 50, Origin: frameRef(2),
			Issued: 3 * time.Second, Hops: 2, Payload: []byte("hello")}}},
	{"envelope-lookup-min", &Envelope{Xfer: 2, From: frameRef(1),
		Lookup: &Lookup{Key: id.New(1, 2), Origin: frameRef(2), NoAck: true}}},
	{"envelope-join", &Envelope{Xfer: 1, Retx: true, From: frameRef(3),
		Join: &JoinRequest{Joiner: frameRef(4), Rows: frameRefs(5), Hops: 3}}},
	{"envelope-join-empty", &Envelope{From: frameRef(3), Join: &JoinRequest{Joiner: frameRef(4)}}},
	{"envelope-bare", &Envelope{Xfer: 128, NeedAck: true, Retx: true, From: frameRef(5), TrtHint: -time.Hour}},
	{"ack", &Ack{Xfer: 42, From: frameRef(1), TrtHint: 90 * time.Second}},
	{"ack-extremes", &Ack{Xfer: ^uint64(0), From: NodeRef{ID: id.Max}, TrtHint: time.Duration(-1 << 63)}},
	{"lsprobe", &LSProbe{From: frameRef(1), Leaves: frameRefs(8), Failed: frameRefs(2), NeedNear: true, TrtHint: time.Second}},
	{"lsprobe-empty", &LSProbe{From: frameRef(1)}},
	{"lsprobereply", &LSProbeReply{From: frameRef(2), Leaves: frameRefs(16), Failed: frameRefs(1), Near: frameRefs(3), TrtHint: time.Minute}},
	{"lsprobereply-empty", &LSProbeReply{From: frameRef(2)}},
	{"heartbeat", &Heartbeat{From: frameRef(6), TrtHint: 5 * time.Minute}},
	{"rtprobe", &RTProbe{From: frameRef(7)}},
	{"rtprobereply", &RTProbeReply{From: frameRef(8), TrtHint: time.Hour}},
	{"joinreply", &JoinReply{Rows: frameRefs(40), Leaves: frameRefs(32)}},
	{"joinreply-empty", &JoinReply{}},
	{"distprobe", &DistProbe{From: frameRef(9), Seq: 99}},
	{"distprobereply", &DistProbeReply{From: frameRef(10), Seq: 1 << 40}},
	{"distreport", &DistReport{From: frameRef(11), RTT: 83 * time.Millisecond}},
	{"rowrequest", &RowRequest{From: frameRef(12), Row: 3}},
	{"rowreply", &RowReply{From: frameRef(13), Row: 3, Entries: frameRefs(15)}},
	{"rowreply-empty", &RowReply{From: frameRef(13), Row: 31}},
	{"rowannounce", &RowAnnounce{From: frameRef(14), Row: 0, Entries: frameRefs(15)}},
	{"repairrequest", &RepairRequest{From: frameRef(15), Row: 2, Col: 11}},
	{"repairreply", &RepairReply{From: frameRef(16), Row: 2, Col: 11, Entries: frameRefs(4)}},
	{"nnstaterequest", &NNStateRequest{From: frameRef(17)}},
	{"nnstatereply", &NNStateReply{From: frameRef(18), Leaves: frameRefs(10), Entries: frameRefs(20)}},
	{"appdirect", &AppDirect{From: frameRef(19), Payload: []byte("response body")}},
	{"appdirect-empty", &AppDirect{From: frameRef(19)}},
}

// TestRecordedFrames pins the wire bytes of every message tag to frames
// recorded from the hand-written codecs this package used to have, and
// holds the sizer and the decoder to the same frames.
func TestRecordedFrames(t *testing.T) {
	tags := map[byte]bool{}
	names := codec.NewInterner(8) // fewer than the samples' addresses: it empties midway
	for _, s := range frameSamples {
		frame := codectest.WantFrame(t, s.name, encodeMessage(s.msg))
		tags[frame[0]] = true
		if got := MessageWireSize(s.msg); got != len(frame) {
			t.Errorf("%s: MessageWireSize = %d, recorded frame has %d bytes", s.name, got, len(frame))
		}
		got, err := DecodeMessage(frame)
		if err != nil {
			t.Errorf("%s: decode of recorded frame: %v", s.name, err)
		} else if !sameWire(got, s.msg) {
			t.Errorf("%s: recorded frame decodes to\n %#v\nwant\n %#v", s.name, got, s.msg)
		} else {
			checkSpares(t, s.name, got)
		}
		// One table across all samples, as a read loop keeps it: the same
		// messages, whether an address is new to the table or shared.
		if interned, err := DecodeInterned(frame, names); err != nil || !sameWire(interned, got) {
			t.Errorf("%s: with a table the recorded frame decodes to\n %#v (%v)\nwithout to\n %#v", s.name, interned, err, got)
		}
	}
	if len(tags) != int(tagAppDirect) {
		t.Errorf("samples cover %d of %d tags", len(tags), tagAppDirect)
	}
}
