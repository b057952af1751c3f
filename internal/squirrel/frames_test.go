package squirrel

import (
	"bytes"
	"testing"

	"mspastry/internal/codec/codectest"
)

// decoders has an empty message of every squirrel kind.
var decoders = map[byte]func() any{
	kindRequest:  func() any { return new(request) },
	kindResponse: func() any { return new(response) },
}

// reencoder decodes its input as a message of the given kind and encodes
// what it decoded.
func reencoder(kind byte) func([]byte) ([]byte, bool) {
	return func(b []byte) ([]byte, bool) {
		m := decoders[kind]()
		ok := decode(b, m)
		return encode(m), ok
	}
}

// frameSamples has both kinds, with the variable-length tail empty and
// set.
func frameSamples() map[string]any {
	return map[string]any{
		"request":         &request{42, []byte("http://example.test/path?q=1")},
		"request-empty":   &request{reqID: 300},
		"response":        &response{7, byte(HitRemote), []byte("hello")},
		"response-miss":   &response{^uint64(0), byte(MissOrigin), []byte("body")},
		"response-failed": &response{1, byte(Failed), nil},
	}
}

// TestRecordedFrames pins the wire bytes of both squirrel kinds to frames
// recorded from the hand-written codec this package used to have, and
// checks that each recorded frame decodes to what was encoded.
func TestRecordedFrames(t *testing.T) {
	for name, m := range frameSamples() {
		frame := codectest.WantFrame(t, name, encode(m))
		// Encoders are injective, so a recorded frame that re-encodes to
		// itself decoded to the values the sample was built from.
		if back, ok := reencoder(frame[0])(frame); !ok || !bytes.Equal(back, frame) {
			t.Errorf("%s: recorded frame decodes (ok=%v) and re-encodes to %x", name, ok, back)
		}
	}
}

// FuzzDecodeSquirrelMessage throws arbitrary bytes at both squirrel
// decoders, which read payloads from any node on the ring. Decoders must
// never panic, and anything they accept must survive a round trip.
func FuzzDecodeSquirrelMessage(f *testing.F) {
	for _, m := range frameSamples() {
		f.Add(encode(m))
	}
	f.Add([]byte{kindRequest})
	f.Add([]byte{kindResponse, byte(HitRemote)})
	f.Fuzz(func(t *testing.T, data []byte) {
		for kind := range decoders {
			codectest.RoundTrip(t, data, reencoder(kind))
		}
	})
}
