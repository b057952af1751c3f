package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"
	"unsafe"
)

// walkAll touches every primitive once.
type all struct {
	tag    byte
	b      byte
	yes    bool
	f0, f1 bool
	u      uint64
	i      int
	d      time.Duration
	w      uint64
	fixed  [3]byte
	s      string
	blob   []byte
	list   []uint64
	rest   []byte
}

func (a *all) walk(c *Coder) {
	c.Tag(a.tag)
	c.Byte(&a.b)
	c.Bool(&a.yes)
	c.Bits(&a.f0, &a.f1)
	c.Uvarint(&a.u)
	c.Int(&a.i)
	c.Duration(&a.d)
	c.Uint64(&a.w)
	c.Fixed(a.fixed[:])
	c.String(&a.s, 8)
	c.Blob(&a.blob, 8)
	list := Slice(c, &a.list, 4)
	for i := range list {
		c.Uvarint(&list[i])
	}
	c.Rest(&a.rest)
}

func TestModesAgree(t *testing.T) {
	in := all{tag: 9, b: 0xfe, yes: true, f1: true, u: 1 << 40, i: 300, d: -time.Second, w: math.MaxUint64,
		fixed: [3]byte{1, 2, 3}, s: "addr", blob: []byte("blob"), list: []uint64{0, 128}, rest: []byte("rest")}
	var sizer Coder
	in.walk(&sizer)
	prefix := []byte("kept")
	app := Appender(prefix[:len(prefix):len(prefix)]) // no room: the walk must grow it
	in.walk(&app)
	enc := app.Bytes()
	if !bytes.HasPrefix(enc, prefix) || len(enc)-len(prefix) != sizer.Size() {
		t.Fatalf("sized %d bytes, appended %d after the prefix of %q", sizer.Size(), len(enc)-len(prefix), enc)
	}
	enc = enc[len(prefix):]
	out := all{tag: 9}
	r := Reader(enc)
	out.walk(&r)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	exact := make([]byte, 0, sizer.Size())
	back := Appender(exact)
	out.walk(&back)
	if !bytes.Equal(back.Bytes(), enc) {
		t.Fatalf("decoded values re-encode to %x, want %x", back.Bytes(), enc)
	}
	if &back.Bytes()[0] != &exact[:1][0] {
		t.Error("a walk into an exactly sized buffer moved to a new one")
	}
	for cut := 0; cut < len(enc)-len(in.rest); cut++ {
		r := Reader(enc[:cut])
		(&all{tag: 9}).walk(&r)
		if r.Finish() == nil {
			t.Errorf("%d of %d bytes read without error", cut, len(enc))
		}
	}
}

func TestVarintsMatchEncodingBinary(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, 64, -64, -65, math.MaxInt64, math.MinInt64} {
		d, u := time.Duration(v), uint64(v)
		app := Appender(nil)
		app.Duration(&d)
		app.Uvarint(&u)
		want := binary.AppendUvarint(binary.AppendVarint(nil, v), u)
		if !bytes.Equal(app.Bytes(), want) {
			t.Errorf("%d: got %x, want %x", v, app.Bytes(), want)
		}
		if got := UvarintLen(u); got != len(binary.AppendUvarint(nil, u)) {
			t.Errorf("UvarintLen(%d) = %d", u, got)
		}
		var back time.Duration
		r := Reader(app.Bytes())
		r.Duration(&back)
		if back != d {
			t.Errorf("duration %d read back as %d", d, back)
		}
	}
}

func TestReaderRejects(t *testing.T) {
	for name, walk := range map[string]func(c *Coder){
		"wrong tag":           func(c *Coder) { c.Tag(7) },
		"unknown flag bit":    func(c *Coder) { var f bool; c.Bits(&f) },
		"string over limit":   func(c *Coder) { var s string; c.String(&s, 1) },
		"blob over limit":     func(c *Coder) { var p []byte; c.Blob(&p, 1) },
		"count over limit":    func(c *Coder) { var s []byte; Slice(c, &s, 1) },
		"count over input":    func(c *Coder) { var s []byte; Slice(c, &s, 100) },
		"unterminated varint": func(c *Coder) { var u uint64; c.Uvarint(&u); c.Uvarint(&u) },
		"excluded value":      func(c *Coder) { c.Require(false) },
		"trailing bytes":      func(c *Coder) { var b byte; c.Byte(&b) },
	} {
		r := Reader([]byte{2, 0x80})
		walk(&r)
		if r.Finish() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestInterner pins the table's three promises: a string it hands out is
// a copy, never a view of the read buffer; equal strings share one copy;
// and past its bound it is emptied, not grown, with every read still
// returning the right string.
func TestInterner(t *testing.T) {
	read := func(names *Interner, buf []byte) string {
		var s string
		r := InterningReader(buf, names)
		r.String(&s, 64)
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	enc := func(s string) []byte {
		app := Appender(nil)
		app.String(&s, 64)
		return app.Bytes()
	}

	names := NewInterner(8)
	buf := enc("10.0.0.1:9000")
	first := read(names, buf)
	again := read(names, buf)
	if unsafe.StringData(first) != unsafe.StringData(again) {
		t.Error("two reads of one address did not share a copy")
	}
	copy(buf[1:], "XXXXXXXXXXXXX") // the next datagram lands in the same buffer
	if first != "10.0.0.1:9000" || again != first {
		t.Errorf("a decoded string changed with the read buffer: %q", first)
	}
	if got := read(names, buf); got != "XXXXXXXXXXXXX" {
		t.Errorf("read %q from the overwritten buffer", got)
	}
	if got := read(nil, enc("plain")); got != "plain" {
		t.Errorf("no table: read %q", got)
	}

	for i := 0; i < 100; i++ {
		want := fmt.Sprintf("10.0.%d.1:9000", i)
		if got := read(names, enc(want)); got != want {
			t.Fatalf("read %q, want %q", got, want)
		}
		if len(names.names) > 8 {
			t.Fatalf("table holds %d strings past its bound of 8", len(names.names))
		}
	}
	if got := read(names, enc(first)); got != first {
		t.Errorf("after the table was emptied, read %q, want %q", got, first)
	}

	warm := enc("10.0.99.1:9000")
	if got := testing.AllocsPerRun(100, func() { read(names, warm) }); got != 0 {
		t.Errorf("a warm read allocates %v times, want 0", got)
	}
}
