package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/overload"
	"mspastry/internal/pastry"
	"mspastry/internal/store"
	"mspastry/internal/wire"
)

// Span names of a traced live run. client.op is one operation as its
// client sees it; transport.do_wait is the time its first step waited for
// the origin's event loop; dht.handler is one call into the dht as the
// node's application (at the root, a replica or the origin), and
// store.call one call the dht makes into its backend.
const (
	spClientOp = iota
	spDoWait
	spDHTHandler
	spStoreCall
)

var liveSpanNames = []string{"client.op", "transport.do_wait", "dht.handler", "store.call"}

// countingSink is the transport.MetricsSink of a traced overlay: counts at
// the socket boundary, shared by every node.
type countingSink struct {
	msgs, msgBytes           [pastry.CategoryCount]atomic.Int64 // by category, single-frame bytes
	datagrams, datagramBytes atomic.Int64
	sendErrors, sheds        atomic.Int64
}

func (s *countingSink) MsgSent(cat pastry.Category, bytes int) {
	s.msgs[cat].Add(1)
	s.msgBytes[cat].Add(int64(bytes))
}
func (s *countingSink) MsgReceived(pastry.Category, int) {}
func (s *countingSink) DatagramSent(bytes, _, _ int, _ time.Duration) {
	s.datagrams.Add(1)
	s.datagramBytes.Add(int64(bytes))
}
func (s *countingSink) DatagramReceived(int, int) {}
func (s *countingSink) SendError()                { s.sendErrors.Add(1) }
func (s *countingSink) DecodeError()              {}
func (s *countingSink) MsgShed(overload.Lane)     { s.sheds.Add(1) }
func (s *countingSink) HandlerPanic()             {}

// tracedApp wraps a node's dht store as its pastry.App and records a
// dht.handler span around every delivery and direct message. All of a
// node's callbacks run on its event loop, so cur needs no lock.
type tracedApp struct {
	ov    *liveOverlay
	inner pastry.App
	cur   int32 // the handler span in progress, -1 outside one
}

// handle runs fn inside a dht.handler span caused by the client operation
// waiting on key, when there is one.
func (a *tracedApp) handle(key *id.ID, fn func()) {
	parent, op := int32(-1), uint32(0)
	if key != nil {
		a.ov.mu.Lock()
		if c := a.ov.pending[*key]; c != nil {
			parent, op = c.span, uint32(c.seq)
		}
		a.ov.mu.Unlock()
	}
	a.cur = a.ov.rec.begin(spDHTHandler, parent, op)
	fn()
	a.ov.rec.end(a.cur)
	a.cur = -1
}

func (a *tracedApp) Deliver(lk *pastry.Lookup) { a.handle(&lk.Key, func() { a.inner.Deliver(lk) }) }

// Forward is a pass-through: with the cache off the dht's Forward does
// nothing, and a span per hop would cost more than it measures.
func (a *tracedApp) Forward(lk *pastry.Lookup) bool { return a.inner.Forward(lk) }

// Direct carries replies and replica pushes; their payload is the dht's
// private encoding, so the operation they belong to is not known here.
func (a *tracedApp) Direct(from pastry.NodeRef, payload []byte) {
	a.handle(nil, func() { a.inner.Direct(from, payload) })
}

// tracedBackend wraps a node's store.Backend and records a store.call span
// around each call, as a child of the handler that made it.
type tracedBackend struct {
	inner store.Backend
	app   *tracedApp
}

func (b *tracedBackend) call() func() {
	rec := b.app.ov.rec
	s := rec.begin(spStoreCall, b.app.cur, 0)
	return func() { rec.end(s) }
}

func (b *tracedBackend) Get(key id.ID) (store.Object, bool) {
	defer b.call()()
	return b.inner.Get(key)
}

func (b *tracedBackend) Apply(o store.Object) (bool, error) {
	defer b.call()()
	return b.inner.Apply(o)
}

func (b *tracedBackend) Drop(key id.ID) error {
	defer b.call()()
	return b.inner.Drop(key)
}

func (b *tracedBackend) Range(fn func(store.Object) bool) {
	defer b.call()()
	b.inner.Range(fn)
}

func (b *tracedBackend) Len() int           { return b.inner.Len() }
func (b *tracedBackend) Stats() store.Stats { return b.inner.Stats() }
func (b *tracedBackend) Close() error       { return b.inner.Close() }

// traced measures the workload's per-layer metrics: reps+1 repetitions on
// an untraced overlay, the same on an overlay built with the tracing
// wrappers (first repetition of each discarded), counts taken where the
// work happens, and probes of each layer the live path uses.
func (w liveWorkload) traced(seed int64, reps int) (result, error) {
	var r result
	m := map[string]float64{}

	plain, err := w.setup(nil)
	if err != nil {
		return r, err
	}
	stop := gcSince()
	plainReps, phases, _ := w.liveReps(plain, seed, reps)
	stop().report(m)
	plain.ov.close()
	m["cpu_us_per_op"] = cpuPerOp(plainReps)
	pick := func(f func(phase) []float64, p float64) float64 {
		v, err := perRepPercentile(phases, f, p)
		if err != nil {
			fmt.Printf("not reported: %v\n", err) // a -quick run is too small for the far tail
		}
		return v
	}
	all := func(p phase) []float64 { return p.lat }
	m["lat_p99_us"] = pick(all, 0.99)
	m["client.lat_p999_us"] = pick(all, 0.999)
	if w.kv {
		m["get_p50_us"] = pick(func(p phase) []float64 { return p.getLat }, 0.5)
		m["put_p50_us"] = pick(func(p phase) []float64 { return p.putLat }, 0.5)
	}

	rec := newSpanRec(true, 12*(reps+1)*w.opsPerRep, liveSpanNames...)
	s, err := w.setup(rec)
	if err != nil {
		return r, err
	}
	defer s.ov.close()
	ov := s.ov
	rec.mark()
	before := ov.tracedCounts()
	tracedReps, tracedPhases, _ := w.liveReps(s, seed, reps)
	after := ov.tracedCounts()
	// liveReps discards its first repetition's tally but its spans and
	// counts are in: both cover reps+1 repetitions.
	c := after.sub(before)
	ops := float64((reps + 1) * w.opsPerRep)

	wall := func(rs []repSample) float64 {
		var x []float64
		for _, r := range rs {
			x = append(x, r.wall.Seconds())
		}
		return median(x)
	}
	m["trace.overhead_share"] = (wall(tracedReps) - wall(plainReps)) / wall(tracedReps)

	var routing, total int64
	for cat := 1; cat < pastry.CategoryCount; cat++ {
		total += c.msgs[cat]
		if cat == int(pastry.CatLookup) || cat == int(pastry.CatAck) || cat == int(pastry.CatApp) {
			routing += c.msgs[cat]
		}
	}
	// On the live path the two pastry shares are shares of messages
	// sent, not of time: concurrent event loops have no single
	// timeline to split.
	m["pastry.route_share"] = float64(routing) / float64(total)
	m["pastry.maint_share"] = float64(total-routing) / float64(total)
	m["pastry.control_msgs_per_op"] = float64(total-c.msgs[pastry.CatLookup]-c.msgs[pastry.CatApp]) / ops
	m["pastry.retx_per_op"] = float64(c.retx) / ops
	m["pastry.join_us_per_node"] = 1e6 * ov.formSeconds / liveNodes
	m["wire.bytes_per_op"] = float64(c.datagramBytes) / ops
	m["wire.msgs_per_datagram"] = float64(total) / float64(c.datagrams)
	m["transport.shed_per_op"] = float64(c.sheds) / ops
	m["transport.send_errors"] = float64(c.sendErrors)
	m["peer.records_per_node"] = float64(c.peerRecords) / liveNodes

	spans := rec.kept()
	tot := sumSpans(spans, len(rec.names))
	var waits []float64
	for _, sp := range spans {
		if sp.name == spDoWait {
			waits = append(waits, float64(sp.end-sp.start)/1e3)
		}
	}
	m["transport.do_wait_us_p50"] = median(waits)
	if w.kv {
		m["dht.handler_self_us_per_op"] = float64(tot.self[spDHTHandler]) / 1e3 / ops
		m["store.calls_per_op"] = float64(tot.count[spStoreCall]) / ops
		m["store.self_us_per_op"] = float64(tot.self[spStoreCall]) / 1e3 / ops
		m["dht.retries_per_op"] = float64(c.dhtRetries) / ops
		// Messages per get and per put, from a stretch of each alone.
		for _, seg := range []struct {
			kind   int
			metric string
		}{{opsGet, "dht.msgs_per_get"}, {opsPut, "dht.msgs_per_put"}} {
			n := w.opsPerRep / 4
			sent := ov.sentTotal()
			p := ov.runPhase(s.cs, seg.kind, n, seed*1000+int64(seg.kind)+500)
			tracedPhases = append(tracedPhases, p)
			m[seg.metric] = float64(ov.sentTotal()-sent) / float64(n)
		}
	}

	// Probes, on an overlay of the live size and configuration formed in
	// the simulator, with the workload's message sizes and mix.
	topo, err := buildTopology()
	if err != nil {
		return r, err
	}
	lookupBytes, appBytes := c.payload(pastry.CatLookup), c.payload(pastry.CatApp)
	msgs := probePastry(probeOverlay(topo, liveNodes, livePastryConfig()), lookupBytes, m)
	msgs[kindApp] = &pastry.AppDirect{From: msgs[kindAck].(*pastry.Ack).From, Payload: make([]byte, appBytes)}
	mix := [numKinds]int64{
		kindLookup: c.msgs[pastry.CatLookup], kindAck: c.msgs[pastry.CatAck],
		kindHeartbeat: c.msgs[pastry.CatLeafSet], kindApp: c.msgs[pastry.CatApp],
	}
	mix[kindOther] = total - mix[kindLookup] - mix[kindAck] - mix[kindHeartbeat] - mix[kindApp]
	probeWire(msgs, mix, true, m)
	probePeer(int(c.peerRecords)/liveNodes, m)
	if err := probeTransport(lookupBytes, m); err != nil {
		return r, err
	}
	if w.kv {
		probeDHT(m)
		probeStore(m)
	}

	path, err := rec.dump(w.name, spans, tot)
	if err != nil {
		return r, err
	}
	fmt.Printf("spans: %d recorded in the timed repetitions, written to bench/%s\n", len(spans), path)
	for _, p := range append(phases, tracedPhases...) {
		r.attempted += p.attempted
		r.failed += p.failed
		r.problems = append(r.problems, p.problems...)
	}
	r.problems = append(r.problems, checkShares(m)...)
	r.metrics = m
	return r, nil
}

// tracedCounts are the counters a traced overlay keeps at its
// boundaries, read before and after the timed repetitions.
type tracedCounts struct {
	msgs, msgBytes           [pastry.CategoryCount]int64
	datagrams, datagramBytes int64
	sendErrors, sheds, retx  int64
	dhtRetries, peerRecords  int64
}

func (ov *liveOverlay) tracedCounts() tracedCounts {
	var c tracedCounts
	for cat := range c.msgs {
		c.msgs[cat] = ov.sink.msgs[cat].Load()
		c.msgBytes[cat] = ov.sink.msgBytes[cat].Load()
	}
	c.datagrams, c.datagramBytes = ov.sink.datagrams.Load(), ov.sink.datagramBytes.Load()
	c.sendErrors, c.sheds, c.retx = ov.sink.sendErrors.Load(), ov.sink.sheds.Load(), ov.retx.Load()
	for i, tr := range ov.trs {
		tr.DoSync(func(n *pastry.Node) {
			c.peerRecords += int64(n.Peers().Len())
			if ov.w.kv {
				c.dhtRetries += int64(ov.stores[i].Counters().Retries)
			}
		})
	}
	return c
}

func (a tracedCounts) sub(b tracedCounts) tracedCounts {
	for cat := range a.msgs {
		a.msgs[cat] -= b.msgs[cat]
		a.msgBytes[cat] -= b.msgBytes[cat]
	}
	a.datagrams -= b.datagrams
	a.datagramBytes -= b.datagramBytes
	a.sendErrors -= b.sendErrors
	a.sheds -= b.sheds
	a.retx -= b.retx
	a.dhtRetries -= b.dhtRetries
	// peerRecords is a level, not a counter: keep the later reading.
	return a
}

// payload estimates the application bytes a message of the category
// carried on average, from its mean frame size and the size of the same
// message with nothing in it.
func (c tracedCounts) payload(cat pastry.Category) int {
	if c.msgs[cat] == 0 {
		return 0
	}
	from := pastry.NodeRef{ID: id.New(1, 1), Addr: "127.0.0.1:40000"}
	empty := sampleMessages(from, nil, 0)
	var bare pastry.Message = empty[kindLookup]
	if cat == pastry.CatApp {
		bare = empty[kindApp]
	}
	n := int(c.msgBytes[cat]/c.msgs[cat]) - len(wire.EncodeSingle(bare))
	if n < 0 {
		n = 0
	}
	return n
}
