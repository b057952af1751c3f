package pastry

import (
	"testing"
	"time"

	"mspastry/internal/codec/codectest"
	"mspastry/internal/id"
)

func reencodeMessage(b []byte) ([]byte, bool) {
	m, err := DecodeMessage(b)
	if err != nil {
		return nil, false
	}
	return AppendMessage(nil, m), true
}

// fuzzDecodeMessage is the body of both fuzz targets, which differ in
// their seed corpora only. The decoder must be total — arbitrary peer
// bytes either parse or error, never panic or over-allocate — and an
// accepted message must survive a round trip and be sized as encoded.
func fuzzDecodeMessage(f *testing.F, seeds ...Message) {
	for _, m := range seeds {
		f.Add(encodeMessage(m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		codectest.RoundTrip(t, data, reencodeMessage)
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if got, want := MessageWireSize(m), len(AppendMessage(nil, m)); got != want {
			t.Fatalf("MessageWireSize = %d for %d encoded bytes of %x", got, want, data)
		}
	})
}

func FuzzDecodeMessage(f *testing.F) {
	from := NodeRef{ID: id.New(1, 2), Addr: "127.0.0.1:9000"}
	to := NodeRef{ID: id.New(3, 4), Addr: "127.0.0.1:9001"}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})
	fuzzDecodeMessage(f,
		&Heartbeat{From: from, TrtHint: 30 * time.Second},
		&Ack{Xfer: 7, From: from, TrtHint: time.Second},
		&LSProbe{From: from, Leaves: []NodeRef{to}, Failed: []NodeRef{from}, NeedNear: true},
		&RTProbe{From: from},
		&JoinReply{Rows: []NodeRef{to}, Leaves: []NodeRef{from}},
		&AppDirect{From: from, Payload: []byte("payload")})
}
