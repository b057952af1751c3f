package hotspot

import (
	"mspastry/internal/codec"
	"mspastry/internal/id"
	"mspastry/internal/store"
)

// Wire kinds for the path-caching protocol: the first byte of a GetVia, a
// CachedReply, a deposited Entry and an Invalidate. They live above 0x40
// so they can never collide with the dht request/response kinds (1..16);
// the secure layer's kinds (internal/secure) sit above them, at 0x51 and
// 0x52.
const (
	KindGetVia      byte = 0x41
	KindCachedReply byte = 0x42
	KindDeposit     byte = 0x43
	KindInvalidate  byte = 0x44
)

// MaxVia bounds the via list: slot 0 is the route's first hop, slot 1
// is overwritten at every later hop and so ends up the penultimate one.
const MaxVia = 2

// maxViaAddr bounds an encoded via address, keeping decode allocation
// proportional to sane inputs.
const maxViaAddr = 255

// Via identifies a caching hop accumulated along a lookup route.
type Via struct {
	ID   id.ID
	Addr string
}

// GetVia is a routed Get that accumulates caching hops: the first hop and
// the (continually overwritten) most recent hop ride along, so the root
// learns which nodes to deposit hot replies on. A decoder rejects more
// than MaxVia hops or an address above maxViaAddr bytes.
type GetVia struct {
	ReqID uint64
	Vias  []Via
}

// CachedReply answers a GetVia lookup, either from the root
// (authoritative) or, with FromCache set, from a caching hop that
// short-circuited the route. A not-found reply carries no value.
type CachedReply struct {
	ReqID            uint64
	Found, FromCache bool
	Version, Origin  uint64
	Dig              store.Digest
	Value            []byte
}

// Invalidate tells a caching hop that (Version, Origin) now supersedes
// whatever it holds for Key.
type Invalidate struct {
	Key             id.ID
	Version, Origin uint64
}

// walk is the wire description of every message: its kind, then its
// fields in wire order. An *Entry is a deposit: a versioned entry pushed
// onto a caching hop, always a root-assigned write, so version ≥ 1. walk
// panics on unknown message types (a programming error).
func walk(c *codec.Coder, m any) {
	switch m := m.(type) {
	case *GetVia:
		c.Tag(KindGetVia)
		c.Uvarint(&m.ReqID)
		vias := codec.Slice(c, &m.Vias, MaxVia)
		for i := range vias {
			c.ID(&vias[i].ID)
			c.String(&vias[i].Addr, maxViaAddr)
		}
	case *CachedReply:
		c.Tag(KindCachedReply)
		c.Bits(&m.Found, &m.FromCache)
		c.Uvarint(&m.ReqID)
		c.Uvarint(&m.Version)
		c.Uvarint(&m.Origin)
		c.Fixed(m.Dig[:])
		c.Rest(&m.Value)
		c.Require(m.Found || len(m.Value) == 0)
	case *Entry:
		c.Tag(KindDeposit)
		c.ID(&m.Key)
		c.Uvarint(&m.Version)
		c.Require(m.Version != 0)
		c.Uvarint(&m.Origin)
		c.Fixed(m.Dig[:])
		c.Rest(&m.Value)
	case *Invalidate:
		c.Tag(KindInvalidate)
		c.ID(&m.Key)
		c.Uvarint(&m.Version)
		c.Uvarint(&m.Origin)
	default: // not naming the type: formatting m would move every message to the heap
		panic("hotspot: message type with no wire format")
	}
}

// Encode serialises a message — a *GetVia, *CachedReply, *Entry or
// *Invalidate — into a fresh, exactly sized slice.
func Encode(m any) []byte {
	var c codec.Coder
	walk(&c, m)
	c = codec.Appender(make([]byte, 0, c.Size()))
	walk(&c, m)
	return c.Bytes()
}

// Decode fills m, a pointer to the message the caller expects, from buf.
// It is total: arbitrary bytes either parse or report false, never panic.
// A Value aliases buf.
func Decode(buf []byte, m any) bool {
	c := codec.Reader(buf)
	walk(&c, m)
	return c.Finish() == nil
}
