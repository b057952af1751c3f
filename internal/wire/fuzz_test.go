package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"mspastry/internal/pastry"
)

// walkAll collects the frame walk: what it yields, or why it yields
// nothing.
func walkAll(frame []byte) ([][]byte, error) {
	w, err := Walk(frame)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, w.Len())
	for p := w.Next(); p != nil; p = w.Next() {
		out = append(out, p)
	}
	if w.Len() != 0 || w.Next() != nil {
		return nil, errors.New("walk yields past its end")
	}
	return out, nil
}

// FuzzFrameRoundTrip asserts the frame layer is total (arbitrary bytes
// either split into payloads or return an error, never panic) and
// canonical: payloads extracted from an accepted frame re-frame into a
// frame that yields the same payloads. DecodeAll, the collector over the
// same walk, must agree with it on every input: it fails exactly the
// frames the walk fails, and accounts for every payload the walk yields
// exactly as decoding that payload alone does.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(EncodeSingle(hb(1)))
	batch := []byte{Version, frameBatch}
	for _, m := range []pastry.Message{hb(1), &pastry.Ack{Xfer: 9, From: ref(2)}} {
		p := pastry.AppendMessage(nil, m)
		batch = appendUvarint(batch, uint64(len(p)))
		batch = append(batch, p...)
	}
	f.Add(batch)
	f.Add([]byte{})
	f.Add([]byte{Version, frameBatch, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, err := walkAll(data)
		msgs, sizes, bad, _ := DecodeAll(data)
		if err != nil {
			if msgs != nil || sizes != nil || bad != 0 {
				t.Fatalf("the walk fails %x (%v), DecodeAll returns %d msgs, bad=%d", data, err, len(msgs), bad)
			}
			return
		}
		if len(payloads) == 0 {
			t.Fatalf("accepted frame %x with no payloads", data)
		}
		if msgs == nil || len(msgs)+bad != len(payloads) || len(sizes) != len(msgs) {
			t.Fatalf("the walk yields %d payloads of %x, DecodeAll %d msgs, %d sizes, bad=%d",
				len(payloads), data, len(msgs), len(sizes), bad)
		}
		good := 0
		for _, p := range payloads {
			m, err := pastry.DecodeMessage(p)
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(msgs[good], m) || sizes[good] != len(p) {
				t.Fatalf("payload %x of %x: DecodeAll has %#v (%d bytes)", p, data, msgs[good], sizes[good])
			}
			good++
		}
		if good != len(msgs) {
			t.Fatalf("DecodeAll decoded %d of %x, payload by payload %d decode", len(msgs), data, good)
		}
		// Re-frame what we extracted and extract again: the payload
		// sequence must survive (uvarint prefixes admit non-minimal
		// encodings, so the frame image itself need not be identical).
		reframed := []byte{Version, frameBatch}
		for _, p := range payloads {
			reframed = appendUvarint(reframed, uint64(len(p)))
			reframed = append(reframed, p...)
		}
		back, err := walkAll(reframed)
		if err != nil || len(back) != len(payloads) {
			t.Fatalf("re-framed %x: %d payloads, err=%v", data, len(back), err)
		}
		for i := range back {
			if !bytes.Equal(back[i], payloads[i]) {
				t.Fatalf("payload %d changed across re-framing of %x", i, data)
			}
		}
		// A lone payload must also survive the single-frame path.
		single := AppendSingle(nil, payloads[0])
		back, err = walkAll(single)
		if err != nil || len(back) != 1 || !bytes.Equal(back[0], payloads[0]) {
			t.Fatalf("single re-framing of %x failed: %v", payloads[0], err)
		}
	})
}
