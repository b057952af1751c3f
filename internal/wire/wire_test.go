package wire

import (
	"encoding/binary"
	"testing"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/pastry"
)

func ref(n uint64) pastry.NodeRef {
	return pastry.NodeRef{ID: id.New(n, n), Addr: "node-1:4000"}
}

func hb(n uint64) pastry.Message {
	return &pastry.Heartbeat{From: ref(n), TrtHint: 30 * time.Second}
}

func TestSingleRoundTrip(t *testing.T) {
	m := hb(7)
	frame := EncodeSingle(m)
	if len(frame) != SingleSize(len(pastry.AppendMessage(nil, m))) {
		t.Fatalf("frame is %d bytes, want SingleSize", len(frame))
	}
	msgs, sizes, bad, err := DecodeAll(frame)
	if err != nil || bad != 0 || len(msgs) != 1 {
		t.Fatalf("DecodeAll: %d msgs, bad=%d, err=%v", len(msgs), bad, err)
	}
	got, ok := msgs[0].(*pastry.Heartbeat)
	if !ok || got.From != ref(7) || got.TrtHint != 30*time.Second {
		t.Fatalf("decoded %#v", msgs[0])
	}
	if SingleSize(sizes[0]) != len(frame) {
		t.Fatalf("size %d does not account for frame of %d bytes", sizes[0], len(frame))
	}
	// A well-formed frame whose payload is no message is one bad message.
	junk := []byte{Version, frameSingle, 0xff, 0x00, 0x01} // no such message tag
	if msgs, sizes, bad, err := DecodeAll(junk); err == nil || bad != 1 || len(msgs) != 0 || len(sizes) != 0 {
		t.Fatalf("junk payload: %d msgs, bad=%d, err=%v", len(msgs), bad, err)
	}
}

// oldBatchKind is the frame kind older binaries used for several
// length-prefixed messages in one datagram; this format rejects it.
const oldBatchKind = 2

// oldBatch builds a well-formed batch frame of the older format.
func oldBatch(msgs ...pastry.Message) []byte {
	frame := []byte{Version, oldBatchKind}
	for _, m := range msgs {
		p := pastry.AppendMessage(nil, m)
		frame = append(binary.AppendUvarint(frame, uint64(len(p))), p...)
	}
	return frame
}

func TestStructuralFrameErrors(t *testing.T) {
	good := pastry.AppendMessage(nil, hb(1))
	cases := map[string][]byte{
		"empty":            {},
		"short":            {Version},
		"bad version":      append([]byte{Version + 1, frameSingle}, good...),
		"unknown kind":     append([]byte{Version, 9}, good...),
		"empty single":     {Version, frameSingle},
		"batch of two":     oldBatch(hb(1), hb(2)),
		"batch of one":     oldBatch(hb(1)),
		"empty batch":      {Version, oldBatchKind},
		"zero-len entry":   {Version, oldBatchKind, 0x00},
		"entry overrun":    {Version, oldBatchKind, 0x7f, 0x01},
		"truncated prefix": {Version, oldBatchKind, 0x80},
	}
	for name, frame := range cases {
		if p, err := Payload(frame); err == nil || p != nil {
			t.Errorf("%s: Payload yields %x of %x, err=%v", name, p, frame, err)
		}
		if msgs, sizes, bad, err := DecodeAll(frame); err == nil || msgs != nil || sizes != nil || bad != 0 {
			t.Errorf("%s: DecodeAll returned %d msgs, bad=%d, err=%v", name, len(msgs), bad, err)
		}
	}
}

// TestWireAllocations pins the steady state of both directions: framing a
// message into a pooled buffer, as the live transport sends it, and
// finding the payload of a received frame allocate nothing.
func TestWireAllocations(t *testing.T) {
	m := hb(1)
	frame := EncodeSingle(m)
	var bytesSeen int
	for name, f := range map[string]func(){
		"AppendFrame, pooled": func() {
			buf := GetBuf()
			*buf = AppendFrame(*buf, m)
			bytesSeen += len(*buf)
			PutBuf(buf)
		},
		"Payload": func() {
			p, err := Payload(frame)
			if err != nil {
				t.Fatal(err)
			}
			bytesSeen += len(p)
		},
	} {
		f() // the first call fills the pool
		if got := testing.AllocsPerRun(200, f); got != 0 {
			t.Errorf("%s: %v allocs, want 0", name, got)
		}
	}
}

func TestControlClassification(t *testing.T) {
	if Control(pastry.CatLookup) || Control(pastry.CatApp) {
		t.Fatal("lookups and app traffic are not control")
	}
	for _, cat := range []pastry.Category{
		pastry.CatJoin, pastry.CatDistance, pastry.CatLeafSet,
		pastry.CatRTProbe, pastry.CatAck,
	} {
		if !Control(cat) {
			t.Fatalf("%v should be control", cat)
		}
	}
}

func BenchmarkEncodeSingle(b *testing.B) {
	m := hb(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := GetBuf()
		*buf = AppendFrame(*buf, m)
		PutBuf(buf)
	}
}
