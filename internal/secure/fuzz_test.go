package secure

import (
	"testing"

	"mspastry/internal/codec/codectest"
	"mspastry/internal/id"
)

// FuzzDecodeReport holds the report decoder, which reads what any peer
// sends (a colluder forges reports in normal operation), to totality: any
// bytes parse or fail, never panic, never yield more than maxLeaves
// leaves, and an accepted report survives a round trip. The seeds are the
// reports the protocol package carried as its own message before the
// layer took them over: one with nine leaves and an empty one.
func FuzzDecodeReport(f *testing.F) {
	var leaves []id.ID
	for n := uint64(1); n <= 9; n++ {
		leaves = append(leaves, id.New(n<<56|n, ^n))
	}
	f.Add(EncodeReport(Report{Seq: 77, Key: id.New(5, 6), Leaves: leaves}))
	f.Add(EncodeReport(Report{}))
	f.Add([]byte{})
	f.Add([]byte{KindReport, 0xff, 0xff, 0xff, 0xff, 0xff})
	// One leaf past the bound, each present, and a kind that is not a
	// report's.
	over := EncodeReport(Report{Seq: 1, Key: id.New(7, 8), Leaves: make([]id.ID, maxLeaves+1)})
	f.Add(over)
	f.Add(append([]byte{KindRequest}, over[1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		codectest.RoundTrip(t, data, func(p []byte) ([]byte, bool) {
			r, ok := decodeReport(p)
			if len(r.Leaves) > maxLeaves {
				t.Fatalf("decoder accepted %d leaves (cap %d)", len(r.Leaves), maxLeaves)
			}
			return EncodeReport(r), ok
		})
	})
}
