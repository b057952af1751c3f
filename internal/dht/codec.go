package dht

import (
	"math"

	"mspastry/internal/codec"
	"mspastry/internal/hotspot"
	"mspastry/internal/id"
	"mspastry/internal/store"
)

// Wire formats: every message starts with a 1-byte kind. Put and Delete
// requests travel through the overlay as lookup payloads and are answered
// with a direct ack; everything from kindReplicate down travels only on
// direct links between replicas.
const (
	kindPut byte = iota + 1
	_            // unused: kind bytes are wire format, so none may move
	kindPutAck
	_ // unused
	kindReplicate
	kindDelete
	kindDeleteAck
	// Anti-entropy, in exchange order: the initiator opens with the root
	// digest of an arc; the responder answers "OK" or its bucket layer; the
	// initiator sends per-key summaries for divergent buckets; the
	// responder pulls the keys it is missing. Values move as kindReplicate.
	kindSyncRoot
	kindSyncRootOK
	kindSyncBuckets
	kindSyncKeys
	kindSyncPull
	// Handoff: a node far outside a key's replica set offers the object's
	// summary to the root, which answers Want (send the value) or Have
	// (already current) — either way the offerer may then drop its copy.
	kindHandoffOffer
	kindHandoffWant
	kindHandoffHave
)

// Reads and path caching (hotspot.go): a Get routed as a lookup, its
// reply, and a root's deposit on and invalidation of a caching hop. The
// secure layer's kinds (internal/secure) sit above them, at 0x51 and 0x52.
const (
	kindGetVia byte = iota + 0x41
	kindCachedReply
	kindDeposit
	kindInvalidate
)

// maxVia bounds a Get's via list: slot 0 is the route's first hop, slot 1
// is overwritten at every later hop and so ends up the penultimate one.
// maxViaAddr bounds an encoded via address, keeping decode allocation
// proportional to sane inputs.
const (
	maxVia     = 2
	maxViaAddr = 255
)

// The messages. A versioned object travels as kindReplicate, the only
// sync or replication message that moves values, an object's summary as
// kindHandoffOffer, and a deposit as kindDeposit, so *store.Object,
// *store.Summary and *hotspot.Entry are messages too.
type (
	// request is a Put or Delete, told apart by kind. Only puts carry a
	// value.
	request struct {
		kind  byte
		reqID uint64
		value []byte
	}
	// ack is a PutAck or DeleteAck echoing a request id, or a SyncRootOK
	// echoing a sync round whose arc digest matched. A decoder sets kind
	// to the one it expects. Bytes after the id are ignored.
	ack struct {
		kind byte
		id   uint64
	}
	// getVia is a Get. Unless it bypasses caching, it accumulates caching
	// hops: the first hop and the (continually overwritten) most recent
	// hop ride along, so the root learns which nodes to deposit hot
	// replies on. A decoder rejects more than maxVia hops or an address
	// above maxViaAddr bytes.
	getVia struct {
		reqID  uint64
		bypass bool
		vias   []via
	}
	// via identifies a caching hop accumulated along a lookup route.
	via struct {
		id   id.ID
		addr string
	}
	// cachedReply answers a Get, from the root or, with fromCache set, from
	// a caching hop that short-circuited the route; bypass echoes the Get's.
	// A not-found reply carries no value.
	cachedReply struct {
		reqID                    uint64
		found, fromCache, bypass bool
		version, origin          uint64
		value                    []byte
	}
	// invalidate tells a caching hop that (version, origin) now supersedes
	// whatever it holds for key.
	invalidate struct {
		key             id.ID
		version, origin uint64
	}
	// syncRoot opens a round: sid identifies it to the initiator; lo/hi
	// carry the arc so both sides digest the same key domain regardless
	// of their leaf-set views.
	syncRoot struct {
		sid    uint64
		lo, hi id.ID
		root   store.Digest
	}
	syncBuckets struct {
		sid     uint64
		buckets [store.RangeBuckets]store.Digest
	}
	// syncKeys carries the initiator's per-key summaries for the
	// divergent buckets. It repeats the arc and bucket set instead of the
	// sid so the responder needs no round state to answer.
	syncKeys struct {
		lo, hi id.ID
		bitmap uint64
		sums   []store.Summary
	}
	// syncPull lists the keys the responder wants.
	syncPull struct{ keys []id.ID }
	// handoffKey is a HandoffWant or HandoffHave, as the decoder's kind
	// expects.
	handoffKey struct {
		kind byte
		key  id.ID
	}
)

// walk is the one wire description of every message: its kind, then its
// fields in wire order; encode and decode are this walk run over a
// codec.Coder in a different mode. It panics on unknown message types (a
// programming error).
func walk(c *codec.Coder, m any) {
	switch m := m.(type) {
	case *request:
		c.Byte(&m.kind)
		c.Require(m.kind == kindPut || m.kind == kindDelete)
		c.Uvarint(&m.reqID)
		c.Rest(&m.value)
		c.Require(m.kind == kindPut || len(m.value) == 0)
	case *ack:
		c.Tag(m.kind)
		c.Uvarint(&m.id)
		var ignored []byte
		c.Rest(&ignored)
	case *store.Object:
		c.Tag(kindReplicate)
		m.Walk(c)
	case *syncRoot:
		c.Tag(kindSyncRoot)
		c.Uvarint(&m.sid)
		c.ID(&m.lo)
		c.ID(&m.hi)
		c.Fixed(m.root[:])
	case *syncBuckets:
		c.Tag(kindSyncBuckets)
		c.Uvarint(&m.sid)
		for i := range m.buckets {
			c.Fixed(m.buckets[i][:])
		}
	case *syncKeys:
		c.Tag(kindSyncKeys)
		c.ID(&m.lo)
		c.ID(&m.hi)
		c.Uint64(&m.bitmap)
		sums := codec.Slice(c, &m.sums, math.MaxInt) // bounded by the bytes left alone
		for i := range sums {
			walkSummary(c, &sums[i])
		}
	case *syncPull:
		c.Tag(kindSyncPull)
		keys := codec.Slice(c, &m.keys, math.MaxInt)
		for i := range keys {
			c.ID(&keys[i])
		}
	case *store.Summary:
		c.Tag(kindHandoffOffer)
		walkSummary(c, m)
	case *handoffKey:
		c.Tag(m.kind)
		c.ID(&m.key)
	case *getVia:
		c.Tag(kindGetVia)
		c.Bits(&m.bypass)
		c.Uvarint(&m.reqID)
		vias := codec.Slice(c, &m.vias, maxVia)
		for i := range vias {
			c.ID(&vias[i].id)
			c.String(&vias[i].addr, maxViaAddr)
		}
	case *cachedReply:
		c.Tag(kindCachedReply)
		c.Bits(&m.found, &m.fromCache, &m.bypass)
		c.Uvarint(&m.reqID)
		c.Uvarint(&m.version)
		c.Uvarint(&m.origin)
		c.Rest(&m.value)
		c.Require(m.found || len(m.value) == 0)
	case *hotspot.Entry:
		c.Tag(kindDeposit)
		m.Walk(c)
	case *invalidate:
		c.Tag(kindInvalidate)
		c.ID(&m.key)
		c.Uvarint(&m.version)
		c.Uvarint(&m.origin)
	default: // not naming the type: formatting m would move every message to the heap
		panic("dht: message type with no wire format")
	}
}

// walkSummary describes one key summary. Summaries describe written
// objects, so version ≥ 1.
func walkSummary(c *codec.Coder, sum *store.Summary) {
	c.ID(&sum.Key)
	c.Bits(&sum.Tombstone)
	c.Uvarint(&sum.Version)
	c.Require(sum.Version != 0)
	c.Uvarint(&sum.Origin)
	c.Fixed(sum.Dig[:])
}

// encode serialises a message into a fresh, exactly sized slice.
func encode(m any) []byte {
	var c codec.Coder
	walk(&c, m)
	c = codec.Appender(make([]byte, 0, c.Size()))
	walk(&c, m)
	return c.Bytes()
}

// decode fills m, a pointer to the message the caller expects, from buf.
// It is total: arbitrary bytes either parse or report false, never panic.
// Byte-slice fields alias buf.
func decode(buf []byte, m any) bool {
	c := codec.Reader(buf)
	walk(&c, m)
	return c.Finish() == nil
}
