// Package wire is the unified encoding layer between the protocol code
// and both transports (the simulator's netmodel and the real UDP
// transport): a length-prefixed, version-tagged frame format with a batch
// frame that packs several control messages bound for the same peer into
// one datagram, pooled encode buffers, and a per-peer coalescer that
// implements the batching policy. Both transports charging byte counts
// from the same encoders is what makes sim-reported overhead and live
// /metrics overhead directly comparable.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"mspastry/internal/codec"
	"mspastry/internal/pastry"
)

// Version is the wire-format version carried in every frame header. A
// node drops frames with a version it does not understand, which is the
// hook a future rolling upgrade needs: new binaries can speak old frames
// to old peers and flip the version only once the deployment has turned
// over.
const Version = 1

// HeaderLen is the fixed frame header: version byte + frame kind byte.
const HeaderLen = 2

// Frame kinds. A Single frame carries exactly one message as its raw
// payload (the datagram boundary delimits it). A Batch frame carries one
// or more length-prefixed messages.
const (
	frameSingle byte = 1
	frameBatch  byte = 2
)

// DefaultMaxPacket bounds assembled frames: the UDP maximum, matching the
// live transport's datagram limit so sim and live batches cut over at the
// same size.
const DefaultMaxPacket = 64 * 1024

// ErrOversize reports a single message whose frame exceeds the transport's
// maximum packet size; senders surface it as a send error rather than
// truncating.
var ErrOversize = errors.New("wire: message exceeds max packet size")

// bufPool recycles frame-encoding buffers across sends.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	},
}

// GetBuf borrows a zero-length encode buffer from the pool.
func GetBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuf returns a buffer to the pool.
func PutBuf(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

// SingleSize is the frame size of one message sent alone.
func SingleSize(payloadLen int) int { return HeaderLen + payloadLen }

// entrySize is the cost of one message inside a batch frame.
func entrySize(payloadLen int) int {
	return codec.UvarintLen(uint64(payloadLen)) + payloadLen
}

// AppendSingle wraps payload in a single-message frame.
func AppendSingle(dst, payload []byte) []byte {
	dst = append(dst, Version, frameSingle)
	return append(dst, payload...)
}

// EncodeSingle is a convenience for tests and size accounting: one message
// as it would travel alone on the wire.
func EncodeSingle(m pastry.Message) []byte {
	return AppendSingle(make([]byte, 0, 256), pastry.AppendMessage(nil, m))
}

// Walker is the one parser of the frame format: a walk over a frame's
// message payloads that allocates nothing. Walk validates the structure;
// Next then yields each payload, aliasing the frame.
type Walker struct {
	body   []byte // what Next has not yielded yet
	n      int    // payloads left
	single bool
}

// Walk validates a frame's structure before anything is yielded, so a
// structural error — an empty or truncated frame, an unknown version or
// kind, a bad length prefix — fails the whole frame. Whether an individual
// payload parses as a message is the caller's (or DecodeAll's) concern.
func Walk(frame []byte) (Walker, error) {
	if len(frame) < HeaderLen {
		return Walker{}, fmt.Errorf("wire: frame of %d bytes is shorter than the header", len(frame))
	}
	if frame[0] != Version {
		return Walker{}, fmt.Errorf("wire: unsupported frame version %d (want %d)", frame[0], Version)
	}
	body := frame[HeaderLen:]
	switch frame[1] {
	case frameSingle:
		if len(body) == 0 {
			return Walker{}, errors.New("wire: empty single frame")
		}
		return Walker{body: body, n: 1, single: true}, nil
	case frameBatch:
		n := 0
		for rest := body; len(rest) > 0; n++ {
			plen, k := binary.Uvarint(rest)
			if k <= 0 {
				return Walker{}, errors.New("wire: bad batch entry length")
			}
			rest = rest[k:]
			if plen == 0 || plen > uint64(len(rest)) {
				return Walker{}, fmt.Errorf("wire: batch entry of %d bytes overruns frame", plen)
			}
			rest = rest[plen:]
		}
		if n == 0 {
			return Walker{}, errors.New("wire: empty batch frame")
		}
		return Walker{body: body, n: n}, nil
	default:
		return Walker{}, fmt.Errorf("wire: unknown frame kind %d", frame[1])
	}
}

// Len is the number of payloads Next has yet to yield.
func (w *Walker) Len() int { return w.n }

// Next yields the next payload, or nil after the last.
func (w *Walker) Next() []byte {
	if w.n == 0 {
		return nil
	}
	w.n--
	if w.single {
		return w.body
	}
	plen, k := binary.Uvarint(w.body) // Walk checked every prefix
	payload := w.body[k : k+int(plen)]
	w.body = w.body[k+int(plen):]
	return payload
}

// DecodeAll parses every message in a frame. A malformed inner message
// drops only that message: decoding continues with the rest, the bad count
// reports how many were dropped and firstErr carries the first failure.
// Structural frame errors return a nil message slice and the error.
// Returned messages own their memory; frame may be reused afterwards.
func DecodeAll(frame []byte) (msgs []pastry.Message, sizes []int, bad int, firstErr error) {
	w, err := Walk(frame)
	if err != nil {
		return nil, nil, 0, err
	}
	msgs = make([]pastry.Message, 0, w.Len())
	sizes = make([]int, 0, w.Len())
	for p := w.Next(); p != nil; p = w.Next() {
		m, err := pastry.DecodeMessage(p)
		if err != nil {
			bad++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		msgs = append(msgs, m)
		sizes = append(sizes, len(p))
	}
	return msgs, sizes, bad, firstErr
}

// Coalescable reports whether a message may wait in a batch for the
// coalescing window. Routed envelopes, join replies, nearest-neighbour
// state exchanges and direct application traffic are latency-critical and
// flush immediately (carrying any batch already pending for the peer with
// them); pure control messages — acks, heartbeats, leaf-set, routing-table
// and distance probes and replies, row and repair maintenance — may wait.
func Coalescable(m pastry.Message) bool {
	switch m.(type) {
	case *pastry.Envelope, *pastry.JoinReply, *pastry.NNStateRequest,
		*pastry.NNStateReply, *pastry.AppDirect:
		return false
	default:
		return true
	}
}

// DelayTolerant reports whether a coalescable message may wait the long
// coalescing window rather than the short one. These are messages with no
// timer waiting on them and deadlines measured in seconds: heartbeats (the
// receiver suspects its neighbour only after Tls+To without one), distance
// reports (informational — the symmetric-probing result the peer would
// otherwise have measured itself) and row announcements (routing-table
// gossip). Probes and their replies never qualify: probe timers arm at
// protocol send time, so wire delay eats straight into the To budget.
func DelayTolerant(m pastry.Message) bool {
	switch m.(type) {
	case *pastry.Heartbeat, *pastry.DistReport, *pastry.RowAnnounce:
		return true
	default:
		return false
	}
}

// Control reports whether a category counts as control traffic (everything
// except lookups and direct application traffic, as in the paper's §5.2).
func Control(cat pastry.Category) bool {
	return cat != pastry.CatLookup && cat != pastry.CatApp
}
