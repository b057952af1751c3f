// Package transport runs MSPastry nodes over real UDP sockets. The same
// protocol code that drives the simulator drives a deployment: the
// transport implements pastry.Env with a wall-clock, real timers and the
// wire codec, and serialises all node callbacks on one event loop per node
// (the protocol code is single-threaded by design).
//
// Every message travels as one wire frame in a datagram of its own.
package transport

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"mspastry/internal/codec"
	"mspastry/internal/id"
	"mspastry/internal/overload"
	"mspastry/internal/pastry"
	"mspastry/internal/wire"
)

// maxPacket is the largest datagram the transport will send or accept.
// Join replies and leaf-set probes carry tens of node references; 64 KiB
// (the UDP maximum) leaves ample headroom.
const maxPacket = wire.MaxPacket

// maxAddrCache bounds the resolved-address cache. The primary bound is
// the peer registry's eviction broadcast (entries are dropped when the
// node evicts the peer); the cap is a backstop against pathological churn
// with ephemeral ports, shedding an arbitrary entry (entries re-resolve
// on demand). It also bounds the read loop's table of address strings.
const maxAddrCache = 4096

// forever is the deadline of an empty timer heap.
const forever = time.Duration(math.MaxInt64)

// loopItem is one unit of event-loop work, held by value in the queue: a
// function to run with the node, or a received message to hand to it.
type loopItem struct {
	fn  func(*pastry.Node)
	msg pastry.Message
}

// UDP hosts one MSPastry node on a UDP socket.
type UDP struct {
	conn  *net.UDPConn
	start time.Time
	rng   *rand.Rand

	// loop is the one queue into the event loop, for Do callers and the
	// read loop alike: 512 messages, a few milliseconds of backlog, behind
	// which the socket buffer absorbs the rest. wake (one slot) tells a
	// sleeping loop to look at the timers again.
	loop chan loopItem
	wake chan struct{}
	done chan struct{}

	mu     sync.Mutex
	closed bool
	node   *pastry.Node
	sink   MetricsSink
	// timers (under mu: Schedule and Cancel are legal off the loop) is the
	// one heap of pending timers. An entry leaves when it fires, on Cancel
	// or at Close, never later: a pending callback keeps the node, and
	// whatever an application hung off it, reachable.
	timers   timerHeap
	timerSeq uint64

	sent, received atomic.Uint64

	// inQ, when set, bounds inbound work between the read loop and the
	// event loop, shedding lowest-priority-first. Shared by both loops.
	inMu sync.Mutex
	inQ  *overload.Queue

	// addrs is the per-peer resolved-address cache, confined to the event
	// loop (Send and the registry's eviction broadcast both run there).
	addrs map[string]netip.AddrPort
}

// MetricsSink observes the transport's traffic. The telemetry package
// provides an implementation backed by its registry; the interface keeps
// this package free of any dependency on it. Send-side callbacks run on
// the event loop and receive-side callbacks on the read loop, so
// implementations must be safe for concurrent use.
type MetricsSink interface {
	// MsgSent fires for every message written to the socket, with its
	// encoded frame size.
	MsgSent(cat pastry.Category, bytes int)
	// MsgReceived fires for every well-formed message decoded from a
	// frame, with its single-frame encoded size.
	MsgReceived(cat pastry.Category, bytes int)
	// DatagramSent fires after a frame is written. A frame carries one
	// message and waits for nothing, so the transport always passes
	// (bytes, 1, 0, 0): its on-wire size, one message, no bytes saved and
	// no hold time.
	DatagramSent(bytes, msgs, savedBytes int, held time.Duration)
	// DatagramReceived fires for every received frame whose message
	// decodes (msgs is 1).
	DatagramReceived(bytes, msgs int)
	// SendError fires when a send fails: unresolvable address, oversized
	// message or socket write error.
	SendError()
	// DecodeError fires for every received datagram dropped as malformed:
	// a bad frame or a message that does not decode.
	DecodeError()
	// MsgShed fires when the bounded inbound queue sheds a message from
	// the given priority lane (the event loop fell behind the socket).
	MsgShed(lane overload.Lane)
	// HandlerPanic fires when a message handler panicked and was
	// contained; the node keeps serving.
	HandlerPanic()
}

// SetMetricsSink installs the traffic metrics sink. Safe to call at any
// time; nil removes it.
func (t *UDP) SetMetricsSink(sink MetricsSink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = sink
}

func (t *UDP) metricsSink() MetricsSink {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sink
}

// SetInboundQueue bounds inbound work between the socket read loop and
// the event loop at limit messages. Arrivals are classified into
// priority lanes; when the event loop falls behind, the queue sheds
// lowest-priority-first, so liveness traffic (acks, probes) survives
// overload at the expense of bulk transfer. Zero (the default) removes
// the bound. Set it before traffic arrives.
func (t *UDP) SetInboundQueue(limit int) {
	t.inMu.Lock()
	defer t.inMu.Unlock()
	if limit <= 0 {
		t.inQ = nil
		return
	}
	t.inQ = overload.NewQueue(limit)
}

// LoadFactor reports the current occupancy of the bounded inbound queue
// in [0,1], or 0 without one. Safe for concurrent use.
func (t *UDP) LoadFactor() float64 {
	t.inMu.Lock()
	defer t.inMu.Unlock()
	if t.inQ == nil {
		return 0
	}
	return t.inQ.LoadFactor()
}

// Listen opens a UDP socket on addr (for example "127.0.0.1:0") and starts
// the transport's event loop.
func Listen(addr string, seed int64) (*UDP, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	t := &UDP{
		conn:  conn,
		start: time.Now(),
		rng:   rand.New(rand.NewSource(seed)),
		addrs: make(map[string]netip.AddrPort),
		loop:  make(chan loopItem, 512),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	go t.runLoop()
	go t.readLoop()
	return t, nil
}

// Addr returns the transport's bound address, which is also the node's
// overlay address.
func (t *UDP) Addr() string { return t.conn.LocalAddr().String() }

// Counters returns the number of protocol messages sent and received by
// this transport (malformed packets are not counted as received).
func (t *UDP) Counters() (sent, received uint64) {
	return t.sent.Load(), t.received.Load()
}

// Env returns the transport's pastry.Env, so applications (Squirrel, the
// DHT) can share the node's clock, timers and transport. Use it only from
// the event loop (inside Do/DoSync).
func (t *UDP) Env() pastry.Env { return (*udpEnv)(t) }

// CreateNode builds the node hosted by this transport. Call exactly once.
// The node's identifier is drawn from the transport's seeded random source
// unless nodeID is non-zero.
func (t *UDP) CreateNode(nodeID id.ID, cfg pastry.Config, obs pastry.Observer) (*pastry.Node, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.node != nil {
		return nil, errors.New("transport: node already created")
	}
	if nodeID.IsZero() {
		nodeID = id.Random(t.rng)
	}
	ref := pastry.NodeRef{ID: nodeID, Addr: t.Addr()}
	n, err := pastry.NewNode(ref, cfg, (*udpEnv)(t), obs)
	if err != nil {
		return nil, err
	}
	// When the node's peer registry evicts a peer for good, forget its
	// resolved address. The broadcast fires from node processing, which
	// runs on the event loop, so this touches loop-confined state safely.
	n.Peers().OnEvict(func(_ id.ID, addr string) { delete(t.addrs, addr) })
	t.node = n
	return n, nil
}

// Do runs fn on the transport's event loop, serialised with message
// delivery and timers. Use it for every interaction with the node.
func (t *UDP) Do(fn func(n *pastry.Node)) { t.enqueue(loopItem{fn: fn}) }

func (t *UDP) enqueue(it loopItem) {
	select {
	case t.loop <- it:
	case <-t.done:
	}
}

// DoSync runs fn on the event loop and waits for it to complete.
func (t *UDP) DoSync(fn func(n *pastry.Node)) {
	ch := make(chan struct{})
	t.Do(func(n *pastry.Node) {
		defer close(ch)
		fn(n)
	})
	select {
	case <-ch:
	case <-t.done:
	}
}

// Close shuts the transport down: the node crashes (fail-stop), the
// socket closes, the loops exit and every timer still pending is dropped.
func (t *UDP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	t.DoSync(func(n *pastry.Node) {
		if n != nil {
			n.Fail()
		}
	})
	close(t.done)
	t.mu.Lock()
	for _, ut := range t.timers {
		ut.index, ut.fn = -1, nil
	}
	t.timers = nil
	t.mu.Unlock()
	return t.conn.Close()
}

// runLoop is the event loop. Between queue items it fires the timers that
// are due, and it sleeps on one runtime timer, re-armed only when the
// earliest deadline moves earlier than what it is armed for. Any wake-up
// means "look again", never "a deadline was reached": a Cancel leaves the
// timer armed too early, and a tick can outlive a Reset in its channel.
func (t *UDP) runLoop() {
	sleep := time.NewTimer(forever)
	defer sleep.Stop()
	armed := forever // the deadline sleep is set for; forever once it has ticked
	for {
		now := (*udpEnv)(t).Now()
		fn, next := t.popDue(now)
		if fn != nil {
			fn()
			continue
		}
		if next < armed {
			sleep.Reset(next - now)
			armed = next
		}
		select {
		case it := <-t.loop:
			if it.fn != nil {
				it.fn(t.node)
			} else if t.node != nil {
				t.deliver(t.node, it.msg)
			}
		case <-t.wake:
		case <-sleep.C:
			armed = forever
		case <-t.done:
			return
		}
	}
}

// readLoop decodes each datagram in place (the pastry decoder copies
// everything it retains, so buf is reused for the next one) and hands its
// message to the event loop.
func (t *UDP) readLoop() {
	buf := make([]byte, maxPacket)
	names := codec.NewInterner(maxAddrCache)
	drain := loopItem{fn: t.drainInbound}
	for {
		n, _, err := t.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		sink := t.metricsSink()
		p, err := wire.Payload(buf[:n])
		var m pastry.Message
		if err == nil {
			m, err = pastry.DecodeInterned(p, names)
		}
		if err != nil {
			if sink != nil {
				sink.DecodeError()
			}
			continue
		}
		t.received.Add(1)
		if sink != nil {
			sink.MsgReceived(m.Category(), n)
			sink.DatagramReceived(n, 1)
		}
		t.inMu.Lock()
		q := t.inQ
		if q == nil {
			t.inMu.Unlock()
			t.enqueue(loopItem{msg: m})
			continue
		}
		shed := q.Push(pastry.LaneOf(m), m)
		t.inMu.Unlock()
		if shed >= 0 && sink != nil {
			sink.MsgShed(shed)
		}
		t.enqueue(drain)
	}
}

// drainInbound runs on the event loop, handing queued messages to the
// node in priority order. It re-reads the queue each iteration, so work
// enqueued while draining is picked up in the same pass.
func (t *UDP) drainInbound(node *pastry.Node) {
	for {
		t.inMu.Lock()
		if t.inQ == nil {
			t.inMu.Unlock()
			return
		}
		v, _, ok := t.inQ.Pop()
		t.inMu.Unlock()
		if !ok {
			return
		}
		if node != nil {
			t.deliver(node, v.(pastry.Message))
		}
	}
}

// deliver hands one message to the node, containing handler panics: a
// latent protocol bug triggered by one peer's message must not take the
// whole process down, so the panic is reported to the MetricsSink and the
// loop keeps serving. The node's state may be mid-transition, but every
// handler mutation is completed or abandoned wholesale (no partial locks),
// so continuing is safe.
func (t *UDP) deliver(node *pastry.Node, m pastry.Message) {
	defer func() {
		if r := recover(); r != nil {
			if sink := t.metricsSink(); sink != nil {
				sink.HandlerPanic()
			}
		}
	}()
	node.Receive(m)
}

// udpEnv implements pastry.Env on top of the transport.
type udpEnv UDP

// Now returns the wall-clock time as a monotonic duration since the
// transport started.
func (e *udpEnv) Now() time.Duration { return time.Since(e.start) }

// Rand returns the transport's random source (only touched from the loop).
func (e *udpEnv) Rand() *rand.Rand { return e.rng }

// Send frames a message and writes it as one datagram. Delivery is
// best-effort UDP; an unresolvable address, a frame over maxPacket and a
// socket error are counted by the MetricsSink's SendError and otherwise
// dropped, like a lost datagram.
func (e *udpEnv) Send(to pastry.NodeRef, m pastry.Message) {
	t := (*UDP)(e)
	dst, err := e.resolve(to.Addr)
	if err != nil {
		t.sendError()
		return
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	*buf = wire.AppendFrame(*buf, m)
	n := len(*buf)
	if n > maxPacket {
		t.sendError()
		return
	}
	if _, err := t.conn.WriteToUDPAddrPort(*buf, dst); err != nil {
		t.sendError()
		return
	}
	e.sent.Add(1)
	if sink := t.metricsSink(); sink != nil {
		sink.MsgSent(m.Category(), n)
		sink.DatagramSent(n, 1, 0, 0)
	}
}

// resolve returns the cached socket address for an overlay address,
// resolving and caching on miss. Event-loop confined.
func (e *udpEnv) resolve(addr string) (netip.AddrPort, error) {
	if dst, ok := e.addrs[addr]; ok {
		return dst, nil
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	// Unmapped, an IPv4 address suits an IPv4 and a dual-stack socket.
	dst := netip.AddrPortFrom(ua.AddrPort().Addr().Unmap(), uint16(ua.Port))
	if len(e.addrs) >= maxAddrCache {
		for victim := range e.addrs {
			delete(e.addrs, victim)
			break
		}
	}
	e.addrs[addr] = dst
	return dst, nil
}

func (t *UDP) sendError() {
	if sink := t.metricsSink(); sink != nil {
		sink.SendError()
	}
}

// Schedule queues fn to run on the event loop d from now; the handle is
// the heap entry, the call's one allocation. On a closed transport, which
// runs no callbacks, it queues nothing.
func (e *udpEnv) Schedule(d time.Duration, fn func()) pastry.Timer {
	return (*UDP)(e).schedule(e.Now()+d, fn)
}

// Rearm implements pastry.Rearmer: a handle of this transport's that has
// fired or been cancelled is queued again, d from now, with the callback
// it was scheduled with. A foreign handle, a pending one or a closed
// transport makes it report false and queue nothing.
func (e *udpEnv) Rearm(tm pastry.Timer, d time.Duration) bool {
	ut, ok := tm.(*udpTimer)
	return ok && ut.owner == (*UDP)(e) && ut.rearm(e.Now()+d)
}

func (t *UDP) schedule(when time.Duration, fn func()) *udpTimer {
	ut := &udpTimer{owner: t, index: -1}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		ut.fn = fn
		t.queue(ut, when)
	}
	return ut
}

// rearm queues ut again, due at when, unless it is pending or its
// transport is closed, and reports whether it did.
func (ut *udpTimer) rearm(when time.Duration) bool {
	t := ut.owner
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || ut.index >= 0 {
		return false
	}
	t.queue(ut, when)
	return true
}

// queue puts ut, which is not pending, in the heap, due at when, and wakes
// the loop if it is the earliest. The caller holds mu.
func (t *UDP) queue(ut *udpTimer, when time.Duration) {
	ut.when, ut.seq = when, t.timerSeq
	t.timerSeq++
	heap.Push(&t.timers, ut)
	if ut.index == 0 {
		select {
		case t.wake <- struct{}{}:
		default: // a wake-up is pending already
		}
	}
}

// popDue removes the earliest timer and returns its callback if it is due
// at now; otherwise it returns nil and the earliest deadline left.
func (t *UDP) popDue(now time.Duration) (fn func(), next time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.timers) == 0 {
		return nil, forever
	}
	if next = t.timers[0].when; next > now {
		return nil, next
	}
	return heap.Pop(&t.timers).(*udpTimer).fn, next
}

// udpTimer is a Schedule handle and, while it is pending, an entry of its
// transport's heap. It keeps its callback when it fires or is cancelled,
// so that its holder can re-arm it (Rearm); only Close drops it.
type udpTimer struct {
	owner *UDP
	when  time.Duration // deadline, on the Env clock
	seq   uint64        // scheduling order: breaks ties between equal deadlines
	fn    func()        // nil once Close dropped the timer, or if it came after
	index int           // position in owner.timers, -1 when not pending
}

// Cancel implements pastry.Timer, from any goroutine. The entry leaves the
// heap at once: an ack cancels a hop's timer seconds before it is due, and
// until then a marked entry would keep the hop its callback holds. On the
// loop a cancelled timer never fires; elsewhere Cancel can lose the race
// with the loop taking the timer off the heap, as time.Timer.Stop can.
func (ut *udpTimer) Cancel() {
	t := ut.owner
	t.mu.Lock()
	defer t.mu.Unlock()
	if ut.index >= 0 {
		heap.Remove(&t.timers, ut.index)
	}
}

// timerHeap is a container/heap of pending timers ordered by (when, seq),
// each entry knowing its position so that Cancel can remove it.
type timerHeap []*udpTimer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	return h[i].when < h[j].when || h[i].when == h[j].when && h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}

func (h *timerHeap) Push(x any) {
	ut := x.(*udpTimer)
	ut.index = len(*h)
	*h = append(*h, ut)
}

func (h *timerHeap) Pop() any {
	last := len(*h) - 1
	ut := (*h)[last]
	(*h)[last], *h = nil, (*h)[:last]
	ut.index = -1
	return ut
}
