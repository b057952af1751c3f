package pastry

import (
	"testing"
	"time"

	"mspastry/internal/id"
)

// FuzzDecodeSecureMessage seeds the shared fuzz body with the
// secure-routing wire surface: the RootReport codec and the Lookup
// WantReport bit. Root reports cross trust boundaries by design (a
// colluder forges them), so this surface sees hostile input in normal
// operation, not just from bugs.
func FuzzDecodeSecureMessage(f *testing.F) {
	from := NodeRef{ID: id.New(1, 2), Addr: "127.0.0.1:9000"}
	leaf := NodeRef{ID: id.New(3, 4), Addr: "127.0.0.1:9001"}
	f.Add([]byte{})
	f.Add([]byte{tagRootReport})
	f.Add([]byte{tagRootReport, 0xff, 0xff, 0xff, 0xff, 0xff})
	fuzzDecodeMessage(f,
		&RootReport{From: from, Seq: 42, Key: id.New(5, 6),
			Leaves: []NodeRef{leaf, from}, TrtHint: 30 * time.Second},
		&RootReport{From: from, Seq: 0, Key: id.ID{}},
		&Envelope{Xfer: 9, NeedAck: true, From: from, Lookup: &Lookup{
			Key: id.New(7, 8), Seq: 3, Origin: leaf, WantReport: true,
			Payload: []byte("p")}})
}
