// Package store is the durable object layer under the DHT: versioned
// objects with tombstones, pluggable backends (a plain in-memory map for
// simulations, an append-only WAL with snapshot compaction for live
// nodes), and Merkle range summaries that let replicas reconcile with
// traffic proportional to their divergence instead of their data size.
//
// The version rules make replica merge deterministic and convergent:
// every write carries a per-key monotonic version assigned by the key's
// root, ties break on the writer's origin identifier, and residual ties
// (same version and origin, different bytes — possible only across
// pathological retries) break on the content digest, so any two replicas
// that have seen the same set of writes store identical bytes. Deletes
// are tombstones: a versioned object with no value that propagates
// through the same replication and anti-entropy paths as a write, so a
// deleted key cannot be resurrected by a stale replica.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"

	"mspastry/internal/codec"
	"mspastry/internal/id"
)

// Object is one versioned value under a key. The zero Object (version 0)
// is "never written": any real write supersedes it.
type Object struct {
	Key id.ID
	// Version is the per-key monotonic write counter, assigned by the
	// key's root at write time (previous version + 1).
	Version uint64
	// Origin identifies the assigning root (its ID's high 64 bits) and
	// breaks ties between concurrent same-version writes from diverged
	// roots.
	Origin uint64
	// Tombstone marks a deleted key. Tombstones replicate like writes so
	// deletion propagates instead of resurrecting.
	Tombstone bool
	Value     []byte
}

// DigestLen is the truncated SHA-256 length used throughout the Merkle
// summaries and key-summary wire entries.
const DigestLen = 16

// Digest is a truncated SHA-256 of an object's identity and content.
type Digest [DigestLen]byte

// Digest hashes the object's full identity (key, version, origin,
// tombstone flag and value). Two replicas hold bit-identical state for a
// key iff their digests match.
func (o Object) Digest() Digest {
	h := sha256.New()
	var hdr [34]byte
	copy(hdr[:16], o.Key.Bytes())
	binary.BigEndian.PutUint64(hdr[16:24], o.Version)
	binary.BigEndian.PutUint64(hdr[24:32], o.Origin)
	if o.Tombstone {
		hdr[32] = 1
	}
	hdr[33] = byte(len(o.Value)) // cheap length domain-separation
	h.Write(hdr[:])
	h.Write(o.Value)
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// Supersedes reports whether o must replace other when both claim the
// same key. The order is total and agreed by all nodes: higher version
// wins, then higher origin, then the larger content digest, so merging
// is commutative and replicas converge no matter the delivery order.
func (o Object) Supersedes(other Object) bool {
	if o.Version != other.Version {
		return o.Version > other.Version
	}
	if o.Origin != other.Origin {
		return o.Origin > other.Origin
	}
	if o.Tombstone != other.Tombstone || !bytes.Equal(o.Value, other.Value) {
		a, b := o.Digest(), other.Digest()
		return bytes.Compare(a[:], b[:]) > 0
	}
	return false
}

// Summary is the fixed-size comparison record exchanged during
// anti-entropy before any value moves: enough to decide which side's
// copy supersedes, at ~40 bytes per key instead of the value.
type Summary struct {
	Key       id.ID
	Version   uint64
	Origin    uint64
	Tombstone bool
	Dig       Digest
}

// Summarize extracts an object's comparison record.
func (o Object) Summarize() Summary {
	return Summary{Key: o.Key, Version: o.Version, Origin: o.Origin,
		Tombstone: o.Tombstone, Dig: o.Digest()}
}

// Supersedes reports whether the summarised remote object must replace
// the local one, under the same total order as Object.Supersedes.
func (s Summary) Supersedes(local Object) bool {
	if s.Version != local.Version {
		return s.Version > local.Version
	}
	if s.Origin != local.Origin {
		return s.Origin > local.Origin
	}
	ld := local.Digest()
	return bytes.Compare(s.Dig[:], ld[:]) > 0
}

// Walk is the object's wire and WAL description:
//
//	flags(1) | key(16) | version uvarint | origin uvarint | value...
//
// The value runs to the end of the buffer, so batched streams must
// length-prefix each object themselves (the WAL frames records, the DHT
// wire carries one object per message). A tombstone carries no value, and
// version 0 is reserved for "never written".
func (o *Object) Walk(c *codec.Coder) {
	c.Bits(&o.Tombstone)
	c.ID(&o.Key)
	c.Uvarint(&o.Version)
	c.Uvarint(&o.Origin)
	c.Rest(&o.Value)
	c.Require(o.Version != 0 && (!o.Tombstone || len(o.Value) == 0))
}

// EncodeObject appends o's canonical encoding to dst and returns the
// extended slice.
func EncodeObject(dst []byte, o Object) []byte {
	c := codec.Appender(dst)
	o.Walk(&c)
	return c.Bytes()
}

// DecodeObject parses an object encoded by EncodeObject. The value
// aliases buf.
func DecodeObject(buf []byte) (o Object, ok bool) {
	c := codec.Reader(buf)
	o.Walk(&c)
	return o, c.Finish() == nil
}
