package wire

import (
	"time"

	"mspastry/internal/codec"
	"mspastry/internal/pastry"
)

// Flush is one assembled frame handed to Config.Emit. Frame is pooled
// memory and Msgs the queue's own slice: both are valid only for the
// duration of the Emit call (write or measure them synchronously; copy
// them to keep them, as the simulator does to deliver the messages later
// without re-parsing the frame).
type Flush struct {
	To    pastry.NodeRef
	Frame []byte           // encoded frame as it travels on the wire
	Msgs  []pastry.Message // the messages inside, in send order

	// SingleBytes is what the same messages would have cost as individual
	// single frames; SingleBytes - len(Frame) is the coalescing saving
	// (negative for a batch of one is impossible: a lone message always
	// flushes as a single frame).
	SingleBytes int

	// Held is how long the oldest message in the frame waited for the
	// coalescing window.
	Held time.Duration
}

// Config parameterises a Coalescer. The Coalescer is not safe for
// concurrent use: both transports confine it to their event loop, and
// After must run its callback on that same loop.
type Config struct {
	// Window is how long a coalescable control message may wait for
	// company. Zero disables coalescing: every message flushes
	// synchronously as its own single frame, reproducing the pre-batching
	// one-message-per-datagram behaviour exactly.
	Window time.Duration

	// LongWindow, when greater than Window, is the wait budget for
	// DelayTolerant messages (heartbeats and informational gossip, whose
	// protocol deadlines are measured in seconds). A queue holding only
	// delay-tolerant traffic waits up to LongWindow; the moment a
	// short-budget message joins, the queue's deadline shrinks to that
	// message's Window. Zero or <= Window means delay-tolerant messages
	// get no extra budget. It must stay below the probe timeout To, or
	// held heartbeats arrive after the receiver's Tls+To suspicion
	// deadline and trigger spurious repair.
	LongWindow time.Duration

	// MaxPacket bounds assembled frames; a message that would push the
	// pending batch past it forces a flush first. Zero means
	// DefaultMaxPacket.
	MaxPacket int

	// MaxSingle, when positive, rejects any message whose single-frame
	// size exceeds it with ErrOversize before queueing. The UDP transport
	// sets it to the datagram limit; the simulator leaves it unbounded.
	MaxSingle int

	// Now is the owner's monotonic clock (pastry.Env time); After runs fn
	// on the owner's event loop after d; Emit receives assembled frames.
	Now   func() time.Duration
	After func(d time.Duration, fn func())
	Emit  func(f Flush)
}

// Coalescer batches control messages per destination peer. Latency-
// critical messages flush immediately and carry any pending batch for the
// same peer with them (piggybacking); coalescable ones wait up to Window.
type Coalescer struct {
	cfg    Config
	queues map[string]*peerQueue
}

type peerQueue struct {
	to   pastry.NodeRef
	msgs []pastry.Message
	// buf is the batch frame under construction: two reserved header
	// bytes, then one uvarint-length-prefixed payload per message. For a
	// batch of one the payload is re-framed as a single frame in place.
	// Nil until the first message, and while a flush has it out at Emit.
	buf       *[]byte
	firstPlen int // uvarint prefix length of the first entry
	single    int // sum of SingleSize over queued messages
	oldest    time.Duration
	// deadline is when the pending batch must flush: the earliest
	// (enqueue time + wait budget) over the queued messages. Each message
	// that starts a queue or shrinks the deadline arms a timer for its own
	// budget; a firing timer flushes only if the queue's deadline has
	// actually arrived, so stale timers from earlier fills are harmless.
	deadline time.Duration
}

// NewCoalescer builds a coalescer; Now, After, and Emit are required.
func NewCoalescer(cfg Config) *Coalescer {
	if cfg.MaxPacket <= 0 {
		cfg.MaxPacket = DefaultMaxPacket
	}
	return &Coalescer{cfg: cfg, queues: make(map[string]*peerQueue)}
}

// Send encodes m for the peer identified by key and either queues it for
// the coalescing window or flushes immediately. It returns the encoded
// payload size (what the message costs before framing) so callers can do
// per-message accounting, or ErrOversize if the message alone cannot fit a
// frame.
func (c *Coalescer) Send(key string, to pastry.NodeRef, m pastry.Message) (int, error) {
	scratch := GetBuf()
	payload := pastry.AppendMessage(*scratch, m)
	*scratch = payload
	defer PutBuf(scratch)

	plen := len(payload)
	if c.cfg.MaxSingle > 0 && SingleSize(plen) > c.cfg.MaxSingle {
		return plen, ErrOversize
	}

	q := c.queues[key]
	if q == nil {
		q = &peerQueue{}
		c.queues[key] = q
	}
	// A message that will not fit alongside the pending batch flushes the
	// batch first; the exact-MaxPacket boundary is allowed to stand. buf
	// already includes the frame header, so len(buf) is the frame size.
	if len(q.msgs) > 0 && len(*q.buf)+entrySize(plen) > c.cfg.MaxPacket {
		c.flush(q)
	}
	if len(q.msgs) == 0 {
		if q.buf == nil {
			q.buf = GetBuf()
		}
		*q.buf = append((*q.buf)[:0], Version, frameBatch)
		q.to = to
		q.single = 0
		q.oldest = c.cfg.Now()
		q.firstPlen = codec.UvarintLen(uint64(plen))
	}
	*q.buf = appendUvarint(*q.buf, uint64(plen))
	*q.buf = append(*q.buf, payload...)
	q.msgs = append(q.msgs, m)
	q.single += SingleSize(plen)

	if c.cfg.Window <= 0 || !Coalescable(m) {
		c.flush(q)
		return plen, nil
	}
	budget := c.cfg.Window
	if c.cfg.LongWindow > budget && DelayTolerant(m) {
		budget = c.cfg.LongWindow
	}
	deadline := c.cfg.Now() + budget
	if len(q.msgs) == 1 || deadline < q.deadline {
		q.deadline = deadline
		c.cfg.After(budget, func() {
			if len(q.msgs) > 0 && c.cfg.Now() >= q.deadline {
				c.flush(q)
			}
		})
	}
	return plen, nil
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// flush assembles the queue's frame and emits it. A batch of one is
// re-framed in place as a single frame so lone messages never pay the
// batch length prefix.
func (c *Coalescer) flush(q *peerQueue) {
	msgs, buf := q.msgs, q.buf
	if len(msgs) == 0 {
		return
	}
	frame := *buf
	if len(msgs) == 1 {
		// Overwrite the last two bytes of the unused prefix region with a
		// single-frame header: payload starts at HeaderLen+firstPlen, and
		// firstPlen >= 1, so the header fits at firstPlen-1..firstPlen.
		frame[q.firstPlen] = Version
		frame[q.firstPlen+1] = frameSingle
		frame = frame[q.firstPlen:]
	}
	f := Flush{
		To:          q.to,
		Frame:       frame,
		Msgs:        msgs,
		SingleBytes: q.single,
		Held:        c.cfg.Now() - q.oldest,
	}
	// Detach before Emit, so a re-entrant Send from inside it sees an empty
	// queue and fills a slice and a buffer of its own; re-attach after,
	// cleared, so the next batch reuses both and pins no sent message.
	q.msgs, q.buf = nil, nil
	c.cfg.Emit(f)
	clear(msgs)
	if q.msgs == nil {
		q.msgs = msgs[:0]
	}
	if q.buf == nil {
		q.buf = buf
	} else {
		PutBuf(buf)
	}
}

// FlushAll drains every pending queue, emitting each as a frame. Call it
// on shutdown so delayed acks are not silently lost.
func (c *Coalescer) FlushAll() {
	for _, q := range c.queues {
		c.flush(q)
	}
}

// DiscardAll empties every queue without emitting anything; queues and
// their buffers remain usable. The simulator calls it when an endpoint
// crashes — a dead node sends nothing, not even its pending acks.
func (c *Coalescer) DiscardAll() {
	for _, q := range c.queues {
		clear(q.msgs)
		q.msgs = q.msgs[:0]
	}
}

// Evict releases the peer's queue for good, flushing any held messages
// first: eviction is a lifecycle decision about the *peer*, not a crash
// of the *sender*, so delay-tolerant frames already accepted for
// transmission (heartbeats, informational gossip) still go out on the
// wire instead of silently vanishing with the queue. Transports call it
// from the peer registry's eviction broadcast.
func (c *Coalescer) Evict(key string) {
	q := c.queues[key]
	if q == nil {
		return
	}
	c.flush(q)
	c.Drop(key)
}

// Drop discards the peer's queue, including any pending messages, and
// releases its buffer. Use Evict for lifecycle eviction — Drop loses
// held messages and is only right when they must not be sent.
func (c *Coalescer) Drop(key string) {
	q := c.queues[key]
	if q == nil {
		return
	}
	delete(c.queues, key)
	q.msgs = nil
	if q.buf != nil {
		PutBuf(q.buf)
		q.buf = nil
	}
}

// Pending reports how many messages are queued for the peer (tests).
func (c *Coalescer) Pending(key string) int {
	if q := c.queues[key]; q != nil {
		return len(q.msgs)
	}
	return 0
}

// Peers reports how many peer queues exist (tests and cache-bound checks).
func (c *Coalescer) Peers() int { return len(c.queues) }
