// Package codec is the one place wire primitives are written down. A
// message is described once, as a function that walks its fields over a
// *Coder in wire order; the Coder's mode decides whether the walk counts
// bytes, appends them or reads them, so a message's encoder, its size and
// its decoder cannot drift apart.
//
// Integers are unsigned varints unless said otherwise, durations zig-zag
// varint nanoseconds, identifiers 16 big-endian bytes, and strings, blobs
// and slices carry a varint length or element count.
package codec

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"time"

	"mspastry/internal/id"
)

type mode uint8

const (
	sizing mode = iota
	appending
	reading
)

// Coder carries one walk; the zero Coder sizes it. A Coder is a plain
// value that walks take by pointer and never retain, and its methods
// store nothing derived from buf back into it (they move the cursor n
// instead of re-slicing), so a Coder and a constant-sized buffer under it
// can both live on the caller's stack.
type Coder struct {
	mode mode
	n    int    // the cursor: bytes counted, written or consumed so far
	buf  []byte // appending: the output, n bytes of it written; reading: the whole input
	err  error  // reading: the first failure; every later read is a no-op

	names *Interner // reading: shares decoded strings; nil copies each one
}

var (
	errShort    = errors.New("short buffer")
	errVarint   = errors.New("bad uvarint")
	errInvalid  = errors.New("invalid field value")
	errTrailing = errors.New("trailing bytes")
)

// Appender returns a Coder that appends a walk's encoding to dst.
func Appender(dst []byte) Coder { return Coder{mode: appending, n: len(dst), buf: dst[:cap(dst)]} }

// Reader returns a Coder that fills a walk's fields from buf.
func Reader(buf []byte) Coder { return InterningReader(buf, nil) }

// InterningReader is Reader with every string read through names (nil for
// none), so a receiver that decodes the same few peer addresses in every
// message allocates each once.
func InterningReader(buf []byte, names *Interner) Coder {
	return Coder{mode: reading, buf: buf, names: names}
}

// Interner keeps one copy of each distinct string its readers decode: at
// most max, and simply emptied when full, so a peer that invents addresses
// costs what every string costs without a table. It belongs to the one
// goroutine that decodes; there is no lock.
type Interner struct {
	max   int
	names map[string]string
}

// NewInterner returns an empty table bounded at max entries.
func NewInterner(max int) *Interner {
	return &Interner{max: max, names: make(map[string]string)}
}

// intern returns b as a string: the table's copy if it has one, found
// without allocating, else a copy that it keeps — never a view of b,
// which is the caller's read buffer.
func (t *Interner) intern(b []byte) string {
	if t == nil {
		return string(b)
	}
	if s, ok := t.names[string(b)]; ok {
		return s
	}
	if len(t.names) >= t.max {
		clear(t.names)
	}
	s := string(b)
	t.names[s] = s
	return s
}

// Size is the byte count of a sizing walk.
func (c *Coder) Size() int { return c.n }

// Bytes is the output of an appending walk.
func (c *Coder) Bytes() []byte { return c.buf[:c.n] }

// Finish is the first failure of a reading walk, which includes not
// having consumed its whole input.
func (c *Coder) Finish() error {
	if c.err == nil && c.n != len(c.buf) {
		return errTrailing
	}
	return c.err
}

// Require fails a reading walk that decoded a value the message's rules
// exclude. It holds trivially while encoding.
func (c *Coder) Require(ok bool) {
	if c.mode == reading && !ok {
		c.fail(errInvalid)
	}
}

func (c *Coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// room returns the output from the cursor on, at least k bytes of it.
func (c *Coder) room(k int) []byte {
	if len(c.buf)-c.n < k {
		c.grow(k)
	}
	return c.buf[c.n:]
}

func (c *Coder) grow(k int) {
	grown := make([]byte, max(2*len(c.buf), c.n+k, 64))
	copy(grown, c.buf[:c.n])
	c.buf = grown
}

// take consumes k input bytes; it returns nil once the walk has failed.
func (c *Coder) take(k int) []byte {
	if c.err != nil || len(c.buf)-c.n < k {
		c.fail(errShort)
		return nil
	}
	c.n += k
	return c.buf[c.n-k : c.n]
}

// Tag walks a constant byte; a reader fails on any other value.
func (c *Coder) Tag(t byte) {
	got := t
	c.Byte(&got)
	c.Require(got == t)
}

// Byte walks one raw byte.
func (c *Coder) Byte(b *byte) {
	if c.mode != sizing {
		c.byte(b)
	} else { // apart from the rest so that it inlines
		c.n++
	}
}

func (c *Coder) byte(b *byte) {
	if c.mode == appending {
		c.room(1)[0] = *b
		c.n++
	} else if p := c.take(1); p != nil {
		*b = p[0]
	}
}

// Bool walks a byte that is 0 or 1; a reader takes any other value as true.
func (c *Coder) Bool(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	c.Byte(&b)
	if c.mode == reading {
		*v = b != 0
	}
}

// Bits walks one byte holding flag i in bit i; a reader fails on a set
// bit that has no flag.
func (c *Coder) Bits(flags ...*bool) {
	var b byte
	for i, f := range flags {
		if *f {
			b |= 1 << i
		}
	}
	c.Byte(&b)
	c.Require(b>>len(flags) == 0)
	for i, f := range flags {
		if c.mode == reading {
			*f = b&(1<<i) != 0
		}
	}
}

// Uint64 walks eight big-endian bytes.
func (c *Coder) Uint64(v *uint64) {
	var p [8]byte
	binary.BigEndian.PutUint64(p[:], *v)
	c.Fixed(p[:])
	if c.mode == reading && c.err == nil {
		*v = binary.BigEndian.Uint64(p[:])
	}
}

// ID walks an identifier's 16 big-endian bytes.
func (c *Coder) ID(x *id.ID) {
	if c.mode != sizing {
		c.id(x)
	} else { // apart from the rest so that it inlines
		c.n += 16
	}
}

func (c *Coder) id(x *id.ID) {
	if c.mode == appending {
		p := c.room(16)
		binary.BigEndian.PutUint64(p, x.Hi)
		binary.BigEndian.PutUint64(p[8:], x.Lo)
		c.n += 16
	} else if p := c.take(16); p != nil {
		*x = id.FromBytes(p)
	}
}

// Fixed walks exactly len(p) raw bytes, reading into p in place.
func (c *Coder) Fixed(p []byte) {
	switch c.mode {
	case sizing:
		c.n += len(p)
	case appending:
		c.n += copy(c.room(len(p)), p)
	case reading:
		copy(p, c.take(len(p)))
	}
}

// Rest walks raw bytes that run to the end of the message. A reader's
// slice aliases its input.
func (c *Coder) Rest(p *[]byte) {
	if c.mode == reading {
		*p = c.take(len(c.buf) - c.n)
	} else {
		c.Fixed(*p)
	}
}

// UvarintLen is len(binary.AppendUvarint(nil, v)).
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Uvarint walks an unsigned varint.
func (c *Coder) Uvarint(v *uint64) {
	if c.mode != sizing {
		c.uvarint(v)
	} else { // apart from the rest, and with UvarintLen spelt out, so that it inlines
		c.n += (bits.Len64(*v|1) + 6) / 7
	}
}

func (c *Coder) uvarint(v *uint64) {
	if c.mode == appending {
		c.n += binary.PutUvarint(c.room(UvarintLen(*v)), *v) // no more room, or an exactly sized buffer would grow
	} else if x, k := binary.Uvarint(c.buf[c.n:]); c.err != nil {
	} else if k <= 0 {
		c.fail(errVarint)
	} else {
		*v, c.n = x, c.n+k
	}
}

// Int walks a non-negative int as an unsigned varint.
func (c *Coder) Int(v *int) {
	u := uint64(*v)
	c.Uvarint(&u)
	if c.mode == reading {
		*v = int(u)
	}
}

// Duration walks signed nanoseconds as a zig-zag varint, the encoding of
// binary.AppendVarint.
func (c *Coder) Duration(d *time.Duration) {
	u := uint64(*d)<<1 ^ uint64(*d>>63)
	c.Uvarint(&u)
	if c.mode == reading {
		*d = time.Duration(u>>1) ^ -time.Duration(u&1)
	}
}

// length walks n, the byte length of a string or blob or the element
// count of a slice, as a varint and returns it as read. A reader fails on
// a length above limit.
func (c *Coder) length(n, limit int) int {
	u := uint64(n)
	c.Uvarint(&u)
	if c.mode == reading && u > uint64(limit) {
		c.fail(errInvalid)
		return 0
	}
	return int(u)
}

// String walks a length-prefixed string of at most limit bytes.
func (c *Coder) String(s *string, limit int) {
	if c.mode == sizing && len(*s) < 0x80 {
		c.n += 1 + len(*s) // apart from the rest so that it inlines: every NodeRef comes this way
	} else {
		c.str(s, limit)
	}
}

func (c *Coder) str(s *string, limit int) {
	switch n := c.length(len(*s), limit); c.mode {
	case sizing:
		c.n += n
	case appending:
		c.n += copy(c.room(n), *s)
	case reading:
		*s = c.names.intern(c.take(n))
	}
}

// Blob walks a length-prefixed byte string of at most limit bytes. A
// reader copies it out of its input; an empty blob reads as nil.
func (c *Coder) Blob(p *[]byte, limit int) {
	if n := c.length(len(*p), limit); c.mode != reading {
		c.Fixed(*p)
	} else if n > 0 {
		*p = append([]byte(nil), c.take(n)...)
	}
}

// Slice walks the element count of *s and returns the slice whose
// elements the caller walks next. A reader allocates it, and fails on a
// count above limit or above the bytes left, since no element is empty;
// an empty slice reads as nil.
func Slice[T any](c *Coder, s *[]T, limit int) []T {
	n := c.length(len(*s), limit)
	if c.mode == reading && n > 0 {
		if n > len(c.buf)-c.n {
			c.fail(errInvalid)
			return nil
		}
		*s = make([]T, n)
	}
	return *s
}
