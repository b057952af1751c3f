// Package codectest holds the two checks every wire codec in the repo is
// held to; the pastry, dht, squirrel and store test suites import it.
package codectest

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// WantFrame checks got against the frame recorded under name in
// testdata/frames.golden of the calling test's package (one "name hex"
// pair per line) and returns the recorded frame. Recorded frames are
// never regenerated. A new message has its line added by hand from the
// failure; a deliberate format change replaces the lines of the frames it
// changes by hand from the failure, and CHANGES.md gives the reason.
func WantFrame(t testing.TB, name string, got []byte) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if enc, ok := strings.CutPrefix(line, name+" "); ok {
			want, err := hex.DecodeString(enc)
			if err != nil {
				t.Fatalf("recorded frame %s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: wire bytes changed:\n got  %x\n want %x", name, got, want)
			}
			return want
		}
	}
	t.Errorf("no recorded frame; add to testdata/frames.golden:\n%s %x", name, got)
	return got
}

// RoundTrip holds one decoder to its encoder on arbitrary input. reencode
// decodes data and encodes what it decoded, reporting whether the decoder
// accepted. Accepted input must re-encode to bytes that are accepted in
// turn and re-encode to themselves: uvarints and flag bytes admit
// non-canonical input, so the first image may differ from data, but
// since encoders are injective the second differs from the first only if
// decoding lost or changed a value.
func RoundTrip(t testing.TB, data []byte, reencode func([]byte) ([]byte, bool)) {
	t.Helper()
	first, ok := reencode(data)
	if !ok {
		return
	}
	second, ok := reencode(first)
	if !ok {
		t.Fatalf("re-encoding %x of accepted %x is rejected", first, data)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip of %x changed a value: %x then %x", data, first, second)
	}
}
