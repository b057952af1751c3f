package wire

import (
	"bytes"
	"reflect"
	"testing"

	"mspastry/internal/pastry"
)

// FuzzFrameRoundTrip asserts the frame layer is total (arbitrary bytes
// either yield a payload or return an error, never panic) and exact: an
// accepted frame is a single frame whose payload is everything after the
// header, and re-framing that payload gives back the frame. DecodeAll,
// the collector over the same parse, must agree with it on every input:
// it fails exactly the frames Payload fails, and accounts for the payload
// exactly as decoding it alone does. A batch frame of the older format is
// kept as a seed that must be rejected.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(EncodeSingle(hb(1)))
	f.Add(oldBatch(hb(1), &pastry.Ack{Xfer: 9, From: ref(2)}))
	f.Add([]byte{})
	f.Add([]byte{Version, oldBatchKind, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Payload(data)
		msgs, sizes, bad, decErr := DecodeAll(data)
		if err != nil {
			if p != nil || msgs != nil || sizes != nil || bad != 0 || decErr == nil {
				t.Fatalf("Payload fails %x (%v), DecodeAll returns %d msgs, bad=%d, err=%v", data, err, len(msgs), bad, decErr)
			}
			return
		}
		if len(data) <= HeaderLen || data[0] != Version || data[1] != frameSingle || !bytes.Equal(p, data[HeaderLen:]) {
			t.Fatalf("accepted %x with payload %x, want a single frame yielding everything after the header", data, p)
		}
		if back := append([]byte{Version, frameSingle}, p...); !bytes.Equal(back, data) {
			t.Fatalf("re-framing the payload of %x gives %x", data, back)
		}
		m, err := pastry.DecodeMessage(p)
		if err != nil {
			if len(msgs) != 0 || len(sizes) != 0 || bad != 1 || decErr == nil {
				t.Fatalf("payload %x does not decode (%v), DecodeAll has %d msgs, bad=%d", p, err, len(msgs), bad)
			}
			return
		}
		if len(msgs) != 1 || len(sizes) != 1 || bad != 0 || decErr != nil ||
			!reflect.DeepEqual(msgs[0], m) || sizes[0] != len(p) {
			t.Fatalf("payload %x of %x: DecodeAll has %d msgs, %v sizes, bad=%d, err=%v", p, data, len(msgs), sizes, bad, decErr)
		}
	})
}
