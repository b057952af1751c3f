// Package transport runs MSPastry nodes over real UDP sockets. The same
// protocol code that drives the simulator drives a deployment, on the same
// event engine: each node's event loop owns one eventsim.Simulator, runs
// it up to the wall clock and sleeps until its next deadline. The
// transport implements pastry.Env with that wall clock, the engine's
// timers and random source, and the wire codec, and serialises all node
// callbacks on the loop (the protocol code is single-threaded by design).
// The Env is the loop's alone: it is used from callbacks, Do and DoSync.
//
// Every message travels as one wire frame in a datagram of its own.
package transport

import (
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
	"mspastry/internal/eventsim"
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

// forever is the deadline of an engine with nothing to fire.
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

	// loop is the one queue into the event loop, for Do callers and the
	// read loop alike: 512 messages, a few milliseconds of backlog, behind
	// which the socket buffer absorbs the rest.
	loop   chan loopItem
	done   chan struct{}
	exited chan struct{} // closed when the event loop has returned

	// sim is the event loop's engine: the node's timers, on the Env clock,
	// and its seeded random source. Loop-confined; Close drops it, and
	// with it every pending callback, once the loop has returned.
	sim *eventsim.Simulator

	mu     sync.Mutex
	closed bool
	node   *pastry.Node
	sink   MetricsSink

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
		conn:   conn,
		start:  time.Now(),
		sim:    eventsim.New(seed),
		addrs:  make(map[string]netip.AddrPort),
		loop:   make(chan loopItem, 512),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
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
// DHT) can share the node's clock, timers and transport. Use it only on
// the event loop: in a timer callback or a handler, or inside Do/DoSync.
// Its timers and random source are the loop's engine, which nothing
// guards against another goroutine.
func (t *UDP) Env() pastry.Env { return (*udpEnv)(t) }

// CreateNode builds the node hosted by this transport. Call exactly once,
// before Close. The node's identifier is drawn from the engine's seeded
// random source unless nodeID is non-zero.
func (t *UDP) CreateNode(nodeID id.ID, cfg pastry.Config, obs pastry.Observer) (*pastry.Node, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.node != nil {
		return nil, errors.New("transport: node already created")
	}
	if t.closed {
		return nil, errors.New("transport: closed")
	}
	if nodeID.IsZero() {
		nodeID = id.Random(t.sim.Rand())
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

// Close shuts the transport down: the node crashes (fail-stop), the event
// loop exits, the engine goes with every timer still pending, and the
// socket closes, which ends the read loop.
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
	<-t.exited
	t.sim = nil
	return t.conn.Close()
}

// runLoop is the event loop. Between loop items it runs the engine up to
// the wall clock, firing the timers that are due, and it sleeps on one
// runtime timer, re-armed only when the engine's next deadline moves
// earlier than what it is armed for. Whatever ends the sleep means "look
// again", never "a deadline was reached": a Cancel leaves the timer armed
// too early, and a tick can outlive a Reset in its channel.
func (t *UDP) runLoop() {
	defer close(t.exited)
	sleep := time.NewTimer(forever)
	defer sleep.Stop()
	armed := forever // the deadline sleep is set for; forever once it has ticked
	for {
		now := (*udpEnv)(t).Now()
		t.sim.RunUntil(now)
		if next, ok := t.sim.Next(); ok && next < armed {
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

// Rand returns the engine's seeded random source.
func (e *udpEnv) Rand() *rand.Rand { return e.sim.Rand() }

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

// Schedule queues fn on the engine, d from now; the handle is the call's
// one allocation. On a closed transport, which runs no callbacks, it
// queues nothing and returns a handle that is not pending.
func (e *udpEnv) Schedule(d time.Duration, fn func()) pastry.Timer {
	if e.sim == nil {
		return new(eventsim.Event)
	}
	return e.sim.At(e.due(d), fn)
}

// Rearm implements pastry.Rearmer with the engine's Rearm, d from now. A
// closed transport re-arms nothing.
func (e *udpEnv) Rearm(tm pastry.Timer, d time.Duration) bool {
	ev, ok := tm.(*eventsim.Event)
	return ok && e.sim != nil && e.sim.Rearm(ev, e.due(d)-e.sim.Now())
}

// due is the engine time d from now on the wall clock. The engine's clock
// trails the wall clock (the loop moves it to the wall at each turn), and
// due is never before it.
func (e *udpEnv) due(d time.Duration) time.Duration { return max(e.Now()+d, e.sim.Now()) }
