// Package splitstream implements striped high-bandwidth multicast over
// Scribe trees, in the style of SplitStream (Castro et al., SOSP 2003) —
// the application the paper's authors ran as a video broadcast on 108
// desktops over MSPastry.
//
// A channel is divided into k data stripes plus one parity stripe; each
// stripe is its own Scribe group, so the stripes travel down independently
// rooted multicast trees (stripe group identifiers differ in their first
// digit, which in Pastry places their roots — and therefore their trees —
// in different parts of the overlay). A published message is split into k
// blocks, one per data stripe, with the parity stripe carrying their XOR:
// a receiver reconstructs the message from any k of the k+1 stripes, so
// the loss of one whole tree (an interior node failure before the soft
// state heals) does not interrupt the stream.
package splitstream

import (
	"encoding/binary"
	"fmt"

	"mspastry/internal/id"
	"mspastry/internal/scribe"
)

// DataStripes is k, the number of data stripes (the parity stripe is
// added on top).
const DataStripes = 4

// Channel is one striped multicast channel on a node.
type Channel struct {
	engine  *scribe.Scribe
	name    string
	k       int
	groups  []id.ID
	handler func(seq uint64, payload []byte)

	// partial assemblies by sequence number.
	partial map[uint64]*assembly

	// Delivered counts reconstructed messages; Recovered counts those
	// that needed the parity stripe.
	Delivered uint64
	Recovered uint64
}

type assembly struct {
	blocks    [][]byte // k data blocks (nil = missing)
	parity    []byte
	have      int
	hasParity bool
	done      bool
	origLen   int
}

// StripeGroups returns the k+1 Scribe group identifiers for a channel
// name: stripe i's group id has its first identifier digit forced to i,
// spreading the tree roots across the ring as SplitStream prescribes.
func StripeGroups(name string, k int) []id.ID {
	base := id.FromKey("splitstream:" + name)
	groups := make([]id.ID, k+1)
	for i := range groups {
		g := base
		// Force the top 4 bits (the first base-16 digit) to the stripe
		// index so roots land in different parts of the identifier space.
		g.Hi = (g.Hi & (^uint64(0) >> 4)) | (uint64(i%16) << 60)
		groups[i] = g
	}
	return groups
}

// Join subscribes the node to all stripes of the named channel; handler
// receives each reconstructed message exactly once, in arrival order.
func Join(engine *scribe.Scribe, name string, handler func(seq uint64, payload []byte)) *Channel {
	c := &Channel{
		engine:  engine,
		name:    name,
		k:       DataStripes,
		groups:  StripeGroups(name, DataStripes),
		handler: handler,
		partial: make(map[uint64]*assembly),
	}
	for i, g := range c.groups {
		stripe := i
		engine.Subscribe(g, func(_ id.ID, payload []byte) { c.onStripe(stripe, payload) })
	}
	return c
}

// Leave unsubscribes from all stripes.
func (c *Channel) Leave() {
	for _, g := range c.groups {
		c.engine.Unsubscribe(g)
	}
}

// Publisher publishes striped messages to a channel. Publishers do not
// need to be subscribers.
type Publisher struct {
	engine  *scribe.Scribe
	k       int
	groups  []id.ID
	nextSeq uint64
}

// NewPublisher creates a publisher for the named channel.
func NewPublisher(engine *scribe.Scribe, name string) *Publisher {
	return &Publisher{
		engine: engine,
		k:      DataStripes,
		groups: StripeGroups(name, DataStripes),
	}
}

// Publish splits payload into k blocks plus parity and sends one block per
// stripe tree. It returns the message's sequence number.
func (p *Publisher) Publish(payload []byte) uint64 {
	p.nextSeq++
	seq := p.nextSeq
	blocks := split(payload, p.k)
	parity := xorBlocks(blocks)
	for i, b := range blocks {
		p.engine.Publish(p.groups[i], encodeBlock(seq, i, len(payload), b))
	}
	p.engine.Publish(p.groups[p.k], encodeBlock(seq, p.k, len(payload), parity))
	return seq
}

// onStripe folds one received block into its assembly and delivers when
// reconstruction is possible.
func (c *Channel) onStripe(stripe int, payload []byte) {
	seq, idx, origLen, block, ok := decodeBlock(payload)
	if !ok || idx != stripe {
		return
	}
	a := c.partial[seq]
	if a == nil {
		a = &assembly{blocks: make([][]byte, c.k), origLen: origLen}
		c.partial[seq] = a
	}
	if a.done {
		return
	}
	if idx == c.k {
		if !a.hasParity {
			a.hasParity = true
			a.parity = block
		}
	} else if a.blocks[idx] == nil {
		a.blocks[idx] = block
		a.have++
	}
	c.tryDeliver(seq, a)
	c.gc(seq)
}

func (c *Channel) tryDeliver(seq uint64, a *assembly) {
	recovered := false
	switch {
	case a.have == c.k:
		// All data blocks present.
	case a.have == c.k-1 && a.hasParity:
		// Reconstruct the single missing block from parity.
		missing := -1
		for i, b := range a.blocks {
			if b == nil {
				missing = i
				break
			}
		}
		rec := append([]byte(nil), a.parity...)
		for i, b := range a.blocks {
			if i != missing {
				xorInto(rec, b)
			}
		}
		// Trim to the missing block's true length.
		lens := blockLengths(a.origLen, c.k)
		if lens[missing] > len(rec) {
			return // malformed
		}
		a.blocks[missing] = rec[:lens[missing]]
		a.have++
		recovered = true
	default:
		return
	}
	a.done = true
	out := make([]byte, 0, a.origLen)
	for _, b := range a.blocks {
		out = append(out, b...)
	}
	if len(out) != a.origLen {
		return // malformed
	}
	c.Delivered++
	if recovered {
		c.Recovered++
	}
	c.handler(seq, out)
}

// gc bounds the partial-assembly map: completed or ancient assemblies are
// discarded once enough newer ones exist.
func (c *Channel) gc(latest uint64) {
	const keep = 64
	if len(c.partial) <= keep {
		return
	}
	for seq := range c.partial {
		if seq+keep < latest {
			delete(c.partial, seq)
		}
	}
}

// split divides payload into k nearly-equal blocks (the first blocks are
// one byte longer when the length is not divisible by k).
func split(payload []byte, k int) [][]byte {
	lens := blockLengths(len(payload), k)
	out := make([][]byte, k)
	off := 0
	for i, l := range lens {
		out[i] = payload[off : off+l]
		off += l
	}
	return out
}

func blockLengths(total, k int) []int {
	base := total / k
	rem := total % k
	out := make([]int, k)
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// xorBlocks XORs all blocks into a buffer sized to the largest block.
func xorBlocks(blocks [][]byte) []byte {
	maxLen := 0
	for _, b := range blocks {
		if len(b) > maxLen {
			maxLen = len(b)
		}
	}
	out := make([]byte, maxLen)
	for _, b := range blocks {
		xorInto(out, b)
	}
	return out
}

func xorInto(dst, src []byte) {
	for i := range src {
		dst[i] ^= src[i]
	}
}

// Block wire format: seq uvarint, stripe uvarint, original length uvarint,
// then the block bytes.
func encodeBlock(seq uint64, stripe, origLen int, block []byte) []byte {
	buf := make([]byte, 0, 24+len(block))
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(stripe))
	buf = binary.AppendUvarint(buf, uint64(origLen))
	return append(buf, block...)
}

func decodeBlock(buf []byte) (seq uint64, stripe, origLen int, block []byte, ok bool) {
	s, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, 0, nil, false
	}
	buf = buf[n:]
	st, n := binary.Uvarint(buf)
	if n <= 0 || st > 1<<16 {
		return 0, 0, 0, nil, false
	}
	buf = buf[n:]
	ol, n := binary.Uvarint(buf)
	if n <= 0 || ol > 1<<24 {
		return 0, 0, 0, nil, false
	}
	return s, int(st), int(ol), buf[n:], true
}

// String describes the channel.
func (c *Channel) String() string {
	return fmt.Sprintf("splitstream %q: %d+1 stripes, %d delivered (%d via parity)",
		c.name, c.k, c.Delivered, c.Recovered)
}
