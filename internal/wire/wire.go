// Package wire is the unified encoding layer between the protocol code
// and both transports (the simulator's netmodel and the real UDP
// transport): a version-tagged frame that carries exactly one message,
// the datagram boundary delimiting it, and pooled encode buffers. Both
// transports charging byte counts from the same encoder is what makes
// sim-reported overhead and live /metrics overhead directly comparable.
package wire

import (
	"errors"
	"fmt"
	"sync"

	"mspastry/internal/pastry"
)

// Version is the wire-format version carried in every frame header. A
// node drops frames with a version it does not understand, which is the
// hook a future rolling upgrade needs: new binaries can speak old frames
// to old peers and flip the version only once the deployment has turned
// over.
const Version = 2

// HeaderLen is the fixed frame header: version byte + frame kind byte.
const HeaderLen = 2

// frameSingle is the one frame kind: the header, then one message's raw
// payload to the end of the datagram.
const frameSingle byte = 1

// MaxPacket is the largest frame a transport sends or accepts: the UDP
// maximum. The live transport counts a larger message as a send error.
const MaxPacket = 64 * 1024

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

// SingleSize is the frame size of a message whose payload is payloadLen
// bytes.
func SingleSize(payloadLen int) int { return HeaderLen + payloadLen }

// AppendFrame appends m's frame to dst: the header, then the message.
func AppendFrame(dst []byte, m pastry.Message) []byte {
	return pastry.AppendMessage(append(dst, Version, frameSingle), m)
}

// EncodeSingle is a convenience for tests and size accounting: m's frame
// in a slice of its own.
func EncodeSingle(m pastry.Message) []byte {
	return AppendFrame(make([]byte, 0, 256), m)
}

// Payload is the one parser of the frame format: it validates a frame
// and returns its message payload, aliasing the frame, without
// allocating. An empty or truncated frame, an unknown version or kind
// (a batch frame from an older binary among them) fails the whole frame.
// Whether the payload parses as a message is the caller's (or
// DecodeAll's) concern.
func Payload(frame []byte) ([]byte, error) {
	if len(frame) < HeaderLen {
		return nil, fmt.Errorf("wire: frame of %d bytes is shorter than the header", len(frame))
	}
	if frame[0] != Version {
		return nil, fmt.Errorf("wire: unsupported frame version %d (want %d)", frame[0], Version)
	}
	if frame[1] != frameSingle {
		return nil, fmt.Errorf("wire: unknown frame kind %d", frame[1])
	}
	if len(frame) == HeaderLen {
		return nil, errors.New("wire: empty frame")
	}
	return frame[HeaderLen:], nil
}

// DecodeAll parses the message in a frame. A frame carries one message,
// so msgs holds at most one, with its payload size in sizes. A structural
// frame error returns nil slices and the error; a payload that does not
// parse returns empty slices, bad = 1 and the decode error. Returned
// messages own their memory; frame may be reused afterwards.
func DecodeAll(frame []byte) (msgs []pastry.Message, sizes []int, bad int, firstErr error) {
	p, err := Payload(frame)
	if err != nil {
		return nil, nil, 0, err
	}
	m, err := pastry.DecodeMessage(p)
	if err != nil {
		return []pastry.Message{}, []int{}, 1, err
	}
	return []pastry.Message{m}, []int{len(p)}, 0, nil
}

// Control reports whether a category counts as control traffic (everything
// except lookups and direct application traffic, as in the paper's §5.2).
func Control(cat pastry.Category) bool {
	return cat != pastry.CatLookup && cat != pastry.CatApp
}
