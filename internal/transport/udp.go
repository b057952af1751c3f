// Package transport runs MSPastry nodes over real UDP sockets. The same
// protocol code that drives the simulator drives a deployment: the
// transport implements pastry.Env with a wall-clock, real timers and the
// wire codec, and serialises all node callbacks on one event loop per node
// (the protocol code is single-threaded by design).
//
// All traffic travels in wire frames. With a coalescing window set,
// control messages to the same peer queue briefly and share one datagram;
// latency-critical messages flush immediately and carry the pending batch
// with them. Incoming batch frames are decoded back into individual
// message deliveries.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/overload"
	"mspastry/internal/pastry"
	"mspastry/internal/wire"
)

// maxPacket is the largest datagram the transport will send or accept.
// Join replies and leaf-set probes carry tens of node references; 64 KiB
// (the UDP maximum) leaves ample headroom.
const maxPacket = wire.DefaultMaxPacket

// maxAddrCache bounds the resolved-address cache. The primary bound is
// the peer registry's eviction broadcast (entries are dropped when the
// node evicts the peer); the cap is a backstop against pathological churn
// with ephemeral ports, shedding an arbitrary entry (entries re-resolve
// on demand).
const maxAddrCache = 4096

// UDP hosts one MSPastry node on a UDP socket.
type UDP struct {
	conn  *net.UDPConn
	start time.Time
	rng   *rand.Rand

	loop chan func()
	done chan struct{}

	mu            sync.Mutex
	closed        bool
	node          *pastry.Node
	coWindow      time.Duration
	coLong        time.Duration
	onDecodeError func(remote net.Addr, err error)
	onSendError   func(to pastry.NodeRef, err error)
	sink          MetricsSink
	// timers (under mu) holds every armed Schedule timer until it fires
	// or is cancelled, so that Close can stop the rest: a pending timer's
	// closure keeps the node, and whatever an application hung off it,
	// reachable until the timer would have fired.
	timers map[*udpTimer]struct{}

	sent, received atomic.Uint64
	panics         atomic.Uint64

	// inQ, when set, bounds inbound work between the read loop and the
	// event loop, shedding lowest-priority-first. Shared by both loops.
	inMu sync.Mutex
	inQ  *overload.Queue

	// Event-loop-confined state (Send, flush timers and the registry's
	// eviction broadcast all run there): the per-peer resolved-address
	// cache and the coalescer.
	addrs map[string]*net.UDPAddr
	co    *wire.Coalescer
}

// OnDecodeError registers fn to observe malformed packets (for logging).
// Safe to call at any time; fn runs on the read loop.
func (t *UDP) OnDecodeError(fn func(remote net.Addr, err error)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onDecodeError = fn
}

// OnSendError registers fn to observe failed sends: unresolvable
// addresses, oversized messages and socket write errors. Safe to call at
// any time; fn runs on the event loop.
func (t *UDP) OnSendError(fn func(to pastry.NodeRef, err error)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onSendError = fn
}

func (t *UDP) decodeErrorHook() func(net.Addr, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.onDecodeError
}

func (t *UDP) sendErrorHook() func(pastry.NodeRef, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.onSendError
}

// MetricsSink observes the transport's traffic. The telemetry package
// provides an implementation backed by its registry; the interface keeps
// this package free of any dependency on it. Send-side callbacks run on
// the event loop and receive-side callbacks on the read loop, so
// implementations must be safe for concurrent use.
type MetricsSink interface {
	// MsgSent fires for every message accepted for transmission, with its
	// single-frame encoded size (what it would cost unbatched).
	MsgSent(cat pastry.Category, bytes int)
	// MsgReceived fires for every well-formed message decoded from a
	// frame, with its single-frame encoded size.
	MsgReceived(cat pastry.Category, bytes int)
	// DatagramSent fires after a frame is written: its on-wire size, how
	// many messages it carried, the bytes saved versus unbatched sends,
	// and how long its oldest message waited for the coalescing window.
	DatagramSent(bytes, msgs, savedBytes int, held time.Duration)
	// DatagramReceived fires for every structurally valid frame received.
	DatagramReceived(bytes, msgs int)
	// SendError fires when a send fails: unresolvable address, oversized
	// message or socket write error.
	SendError()
	// DecodeError fires for malformed frames and for each malformed
	// message inside an otherwise valid batch.
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

// SetCoalesceWindow sets how long coalescable control messages may wait to
// share a datagram with later traffic to the same peer. Zero (the
// default) sends every message as its own datagram. Set it before the
// node starts sending: the coalescer is built on first send.
func (t *UDP) SetCoalesceWindow(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.coWindow = d
}

// SetCoalesceLongWindow sets the extended wait budget for delay-tolerant
// messages (heartbeats, distance reports, row announcements); see
// wire.Config.LongWindow. Keep it well below the probe timeout To.
func (t *UDP) SetCoalesceLongWindow(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.coLong = d
}

func (t *UDP) coalesceWindows() (window, long time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.coWindow, t.coLong
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

// OverloadStats reports the inbound queue's per-lane shed counts (all
// zero without SetInboundQueue) and the number of contained handler
// panics.
func (t *UDP) OverloadStats() (shed [overload.NumLanes]uint64, panics uint64) {
	t.inMu.Lock()
	if t.inQ != nil {
		shed = t.inQ.Shed
	}
	t.inMu.Unlock()
	return shed, t.panics.Load()
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
		rng:    rand.New(rand.NewSource(seed)),
		addrs:  make(map[string]*net.UDPAddr),
		timers: make(map[*udpTimer]struct{}),
		loop:   make(chan func(), 1024),
		done:   make(chan struct{}),
	}
	go t.runLoop()
	go t.readLoop()
	return t, nil
}

// Addr returns the transport's bound address, which is also the node's
// overlay address.
func (t *UDP) Addr() string { return t.conn.LocalAddr().String() }

// Counters returns the number of protocol messages sent and received by
// this transport (malformed packets are not counted as received; messages
// sharing a coalesced datagram each count once).
func (t *UDP) Counters() (sent, received uint64) {
	return t.sent.Load(), t.received.Load()
}

// Env returns the transport's pastry.Env, so applications (Squirrel,
// Scribe, the DHT) can share the node's clock, timers and transport. Use
// it only from the event loop (inside Do/DoSync).
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
	// When the node's peer registry evicts a peer for good, release the
	// transport's per-peer state: flush (not drop) any held coalesced
	// frames while the resolved address is still cached, then forget the
	// address. The broadcast fires from node processing, which runs on
	// the event loop, so this touches loop-confined state safely.
	n.Peers().OnEvict(func(x id.ID, addr string) {
		if addr == "" {
			return
		}
		if t.co != nil {
			t.co.Evict(addr)
		}
		delete(t.addrs, addr)
	})
	t.node = n
	return n, nil
}

// Do runs fn on the transport's event loop, serialised with message
// delivery and timers. Use it for every interaction with the node.
func (t *UDP) Do(fn func(n *pastry.Node)) {
	select {
	case t.loop <- func() { fn(t.node) }:
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

// Close shuts the transport down: the node crashes (fail-stop), pending
// coalesced frames flush, the socket closes, the loops exit and every
// timer still armed is stopped.
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
		if t.co != nil {
			t.co.FlushAll()
		}
	})
	close(t.done)
	t.mu.Lock()
	for ut := range t.timers {
		ut.timer.Stop()
	}
	t.timers = nil
	t.mu.Unlock()
	return t.conn.Close()
}

func (t *UDP) runLoop() {
	for {
		select {
		case fn := <-t.loop:
			fn()
		case <-t.done:
			return
		}
	}
}

func (t *UDP) readLoop() {
	buf := make([]byte, maxPacket)
	for {
		n, remote, err := t.conn.ReadFromUDP(buf)
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
		// The pastry decoder copies everything it retains, so the frame
		// can be decoded in place and buf reused for the next datagram.
		msgs, sizes, bad, decErr := wire.DecodeAll(buf[:n])
		if msgs == nil && decErr != nil {
			if sink := t.metricsSink(); sink != nil {
				sink.DecodeError()
			}
			if fn := t.decodeErrorHook(); fn != nil {
				fn(remote, decErr)
			}
			continue
		}
		sink := t.metricsSink()
		if bad > 0 {
			// A malformed message inside a batch drops only itself.
			if sink != nil {
				for i := 0; i < bad; i++ {
					sink.DecodeError()
				}
			}
			if fn := t.decodeErrorHook(); fn != nil {
				fn(remote, decErr)
			}
		}
		if len(msgs) == 0 {
			continue
		}
		t.received.Add(uint64(len(msgs)))
		if sink != nil {
			sink.DatagramReceived(n, len(msgs))
			for i, m := range msgs {
				sink.MsgReceived(m.Category(), wire.SingleSize(sizes[i]))
			}
		}
		t.inMu.Lock()
		q := t.inQ
		t.inMu.Unlock()
		if q == nil {
			t.Do(func(node *pastry.Node) {
				if node == nil {
					return
				}
				for _, m := range msgs {
					t.deliver(node, m)
				}
			})
			continue
		}
		t.inMu.Lock()
		var sheds []overload.Lane
		for _, m := range msgs {
			if shed := q.Push(pastry.LaneOf(m), m); shed >= 0 {
				sheds = append(sheds, shed)
			}
		}
		t.inMu.Unlock()
		if sink != nil {
			for _, l := range sheds {
				sink.MsgShed(l)
			}
		}
		t.Do(t.drainInbound)
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
// whole process down, so the panic is counted and the loop keeps
// serving. The node's state may be mid-transition, but every handler
// mutation is completed or abandoned wholesale (no partial locks), so
// continuing is safe.
func (t *UDP) deliver(node *pastry.Node, m pastry.Message) {
	defer func() {
		if r := recover(); r != nil {
			t.panics.Add(1)
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

// Send frames and transmits a message, batching coalescable control
// messages within the configured window. Delivery is best-effort UDP;
// failures are reported through OnSendError and otherwise dropped, like a
// lost datagram.
func (e *udpEnv) Send(to pastry.NodeRef, m pastry.Message) {
	t := (*UDP)(e)
	// Resolve now so address errors surface synchronously, before the
	// message can enter a batch.
	if _, err := e.resolve(to.Addr); err != nil {
		e.sendError(to, fmt.Errorf("transport: resolve %q: %w", to.Addr, err))
		return
	}
	size, err := t.coalescer().Send(to.Addr, to, m)
	if err != nil {
		e.sendError(to, fmt.Errorf("transport: message of %d bytes exceeds %d: %w",
			wire.SingleSize(size), maxPacket, err))
		return
	}
	e.sent.Add(1)
	if sink := t.metricsSink(); sink != nil {
		sink.MsgSent(m.Category(), wire.SingleSize(size))
	}
}

// resolve returns the cached socket address for an overlay address,
// resolving and caching on miss. Event-loop confined.
func (e *udpEnv) resolve(addr string) (*net.UDPAddr, error) {
	if dst, ok := e.addrs[addr]; ok {
		return dst, nil
	}
	dst, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	if len(e.addrs) >= maxAddrCache {
		for victim := range e.addrs {
			delete(e.addrs, victim)
			break
		}
	}
	e.addrs[addr] = dst
	return dst, nil
}

// coalescer lazily builds the per-peer batching queues, so a
// SetCoalesceWindow call made between Listen and the first send takes
// effect.
func (t *UDP) coalescer() *wire.Coalescer {
	if t.co == nil {
		window, long := t.coalesceWindows()
		t.co = wire.NewCoalescer(wire.Config{
			Window:     window,
			LongWindow: long,
			MaxPacket:  maxPacket,
			MaxSingle:  maxPacket,
			Now:        (*udpEnv)(t).Now,
			After: func(d time.Duration, fn func()) {
				time.AfterFunc(d, func() {
					t.Do(func(*pastry.Node) { fn() })
				})
			},
			Emit: t.emitFrame,
		})
	}
	return t.co
}

// emitFrame writes one assembled frame to the socket. Runs on the event
// loop (synchronously from Send, or from a flush timer).
func (t *UDP) emitFrame(f wire.Flush) {
	e := (*udpEnv)(t)
	dst, err := e.resolve(f.To.Addr)
	if err != nil {
		// The cache entry was shed between enqueue and flush and the
		// re-resolve failed; the frame is lost like a dropped datagram.
		e.sendError(f.To, fmt.Errorf("transport: resolve %q: %w", f.To.Addr, err))
		return
	}
	if _, err := t.conn.WriteToUDP(f.Frame, dst); err != nil {
		e.sendError(f.To, err)
		return
	}
	if sink := t.metricsSink(); sink != nil {
		sink.DatagramSent(len(f.Frame), len(f.Msgs), f.SingleBytes-len(f.Frame), f.Held)
	}
}

func (e *udpEnv) sendError(to pastry.NodeRef, err error) {
	if sink := (*UDP)(e).metricsSink(); sink != nil {
		sink.SendError()
	}
	if fn := (*UDP)(e).sendErrorHook(); fn != nil {
		fn(to, err)
	}
}

// LoadFactor implements pastry.LoadSampler: current occupancy of the
// bounded inbound queue in [0,1], or 0 without one. Layers above (the
// DHT's sweep scheduler) use it to defer deferrable work under load.
func (e *udpEnv) LoadFactor() float64 {
	t := (*UDP)(e)
	t.inMu.Lock()
	defer t.inMu.Unlock()
	if t.inQ == nil {
		return 0
	}
	return t.inQ.LoadFactor()
}

// Schedule arms a real timer whose callback runs on the event loop. On a
// closed transport, which runs no callbacks, it arms nothing.
func (e *udpEnv) Schedule(d time.Duration, fn func()) pastry.Timer {
	t := (*UDP)(e)
	ut := &udpTimer{owner: t}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ut
	}
	t.timers[ut] = struct{}{}
	ut.timer = time.AfterFunc(d, func() {
		t.forget(ut)
		t.Do(func(*pastry.Node) {
			ut.mu.Lock()
			canceled := ut.canceled
			ut.mu.Unlock()
			if !canceled {
				fn()
			}
		})
	})
	return ut
}

func (t *UDP) forget(ut *udpTimer) {
	t.mu.Lock()
	delete(t.timers, ut)
	t.mu.Unlock()
}

type udpTimer struct {
	owner    *UDP
	mu       sync.Mutex
	canceled bool
	timer    *time.Timer // nil when the transport was closed already
}

// Cancel implements pastry.Timer. It is safe to call from the event loop;
// a callback already queued will observe the flag and do nothing.
func (ut *udpTimer) Cancel() {
	ut.mu.Lock()
	ut.canceled = true
	ut.mu.Unlock()
	if ut.timer != nil {
		ut.timer.Stop()
		ut.owner.forget(ut)
	}
}
