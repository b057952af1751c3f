package hotspot

import (
	"bytes"
	"strings"
	"testing"

	"mspastry/internal/codec/codectest"
	"mspastry/internal/id"
	"mspastry/internal/store"
)

// decoders has an empty message of every hotspot kind.
var decoders = map[byte]func() any{
	KindGetVia:      func() any { return new(GetVia) },
	KindCachedReply: func() any { return new(CachedReply) },
	KindDeposit:     func() any { return new(Entry) },
	KindInvalidate:  func() any { return new(Invalidate) },
}

// reencoder decodes its input as a message of the given kind and encodes
// what it decoded.
func reencoder(kind byte) func([]byte) ([]byte, bool) {
	return func(b []byte) ([]byte, bool) {
		m := decoders[kind]()
		ok := Decode(b, m)
		return Encode(m), ok
	}
}

// frameSamples has every hotspot kind, with the via list empty and at
// its limits.
func frameSamples() map[string]any {
	k := id.New(0x1122334455667788, 0x99aabbccddeeff00)
	dig := store.Object{Key: k, Version: 1, Value: []byte("v")}.Digest()
	vias := []Via{{ID: k, Addr: "host:1"}, {ID: id.Max, Addr: strings.Repeat("a", maxViaAddr)}}
	return map[string]any{
		"getvia":              &GetVia{77, vias[:1]},
		"getvia-empty":        &GetVia{ReqID: 300},
		"getvia-max":          &GetVia{^uint64(0), vias},
		"cachedreply":         &CachedReply{12, true, true, 9, 1 << 40, dig, []byte("value")},
		"cachedreply-root":    &CachedReply{ReqID: 12, Found: true, Version: 9, Origin: 4, Dig: dig},
		"cachedreply-missing": &CachedReply{ReqID: 13},
		"deposit":             &Entry{Key: k, Version: 3, Origin: 2, Dig: dig, Value: []byte("vv")},
		"deposit-empty":       &Entry{Key: k, Version: 128, Dig: dig},
		"invalidate":          &Invalidate{k, 5, 6},
	}
}

// TestRecordedFrames pins the wire bytes of every hotspot kind to frames
// recorded from the hand-written codecs this package used to have, and
// checks that each recorded frame decodes to what was encoded.
func TestRecordedFrames(t *testing.T) {
	kinds := map[byte]bool{}
	for name, m := range frameSamples() {
		frame := codectest.WantFrame(t, name, Encode(m))
		kinds[frame[0]] = true
		// Encoders are injective, so a recorded frame that re-encodes to
		// itself decoded to the values the sample was built from.
		if back, ok := reencoder(frame[0])(frame); !ok || !bytes.Equal(back, frame) {
			t.Errorf("%s: recorded frame decodes (ok=%v) and re-encodes to %x", name, ok, back)
		}
	}
	if len(kinds) != len(decoders) {
		t.Errorf("samples cover %d of %d kinds", len(kinds), len(decoders))
	}
}

// FuzzDecodeHotspotMessage throws arbitrary bytes at every hotspot
// decoder. Decoders must never panic, and anything they accept must
// survive a round trip.
func FuzzDecodeHotspotMessage(f *testing.F) {
	for _, m := range frameSamples() {
		f.Add(Encode(m))
	}
	f.Add([]byte{KindGetVia, 0x00, 0x02})
	f.Add([]byte{KindCachedReply, 0x04, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		for kind := range decoders {
			codectest.RoundTrip(t, data, reencoder(kind))
		}
	})
}

// TestCodecAllocations pins what passing messages to Encode and Decode
// as `any` must not cost: the message stays on the caller's stack, so an
// encode allocates its output only and a decode only what it decoded.
func TestCodecAllocations(t *testing.T) {
	value := make([]byte, 1024)
	reply := Encode(&CachedReply{ReqID: 5, Found: true, Value: value})
	get := Encode(&GetVia{7, []Via{{Addr: "10.0.0.1:9000"}}})
	for name, pin := range map[string]struct {
		want float64
		f    func()
	}{
		"encode CachedReply": {1, func() { Encode(&CachedReply{ReqID: 5, Found: true, Value: value}) }},
		"decode CachedReply": {0, func() { Decode(reply, &CachedReply{}) }},
		"decode GetVia":      {2, func() { Decode(get, &GetVia{}) }}, // the via list and its one address
	} {
		if got := testing.AllocsPerRun(100, pin.f); got != pin.want {
			t.Errorf("%s: %v allocs, want %v", name, got, pin.want)
		}
	}
}
