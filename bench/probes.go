package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"mspastry/internal/dht"
	"mspastry/internal/eventsim"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/peer"
	"mspastry/internal/store"
	"mspastry/internal/telemetry"
	"mspastry/internal/topology"
	"mspastry/internal/transport"
	"mspastry/internal/wire"
)

// A probe times one layer's public functions in isolation: no other layer
// runs inside the timed region, so the number is the layer's own unit
// cost, which the traced run then puts in context.

const (
	probeBatches = 7   // timed batches per probe, after one discarded
	probeCalls   = 256 // calls per batch: state a call leaves behind (pending acks, queued events) stays small
)

// probe runs batch probeBatches+1 times, discards the first, and returns
// the median nanoseconds per call and the mean allocations per call.
// prep, when given, runs untimed before every batch.
func probe(calls int, prep, batch func()) (ns, allocs float64) {
	var per []float64
	var mallocs uint64
	var ms runtime.MemStats
	for i := 0; i <= probeBatches; i++ {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		batch()
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		if i == 0 {
			continue
		}
		per = append(per, float64(d.Nanoseconds())/float64(calls))
		mallocs += ms.Mallocs - before
	}
	return median(per), float64(mallocs) / float64(calls*probeBatches)
}

// nullEnv is a pastry.Env with no network and no clock of its own: sends
// are dropped (lookup hops are remembered so that the probe can answer
// them), zero-delay timers queue until drain runs them, and later timers
// never fire.
type nullEnv struct {
	now   time.Duration
	rng   *rand.Rand
	queue []func()
	// acks holds the per-hop ack each forwarded envelope is waiting for.
	acks []*pastry.Ack
}

type nullTimer struct{}

func (nullTimer) Cancel() {}

func newNullEnv() *nullEnv { return &nullEnv{rng: rand.New(rand.NewSource(1))} }

func (e *nullEnv) Now() time.Duration { return e.now }
func (e *nullEnv) Rand() *rand.Rand   { return e.rng }

func (e *nullEnv) Send(to pastry.NodeRef, m pastry.Message) {
	if env, ok := m.(*pastry.Envelope); ok && env.NeedAck {
		e.acks = append(e.acks, &pastry.Ack{Xfer: env.Xfer, From: to})
	}
}

func (e *nullEnv) Schedule(d time.Duration, fn func()) pastry.Timer {
	if d == 0 {
		e.queue = append(e.queue, fn)
	}
	return nullTimer{}
}

func (e *nullEnv) drain() {
	for len(e.queue) > 0 {
		fn := e.queue[0]
		e.queue = e.queue[1:]
		fn()
	}
}

// probeEventsim times scheduling and firing one no-op event on a heap
// that holds depth pending events (the workload's mean depth).
func probeEventsim(depth int, m map[string]float64) (stepNs float64) {
	sim := eventsim.New(1)
	noop := func() {}
	for i := 0; i < depth; i++ {
		sim.After(time.Hour+time.Duration(i), noop)
	}
	// Each call schedules one event among the pending ones and fires
	// the earliest, so the depth stays put.
	ns, allocs := probe(probeCalls, nil, func() {
		for i := 0; i < probeCalls; i++ {
			sim.After(time.Duration(i%64)*time.Microsecond, noop)
			sim.Step()
		}
	})
	m["eventsim.ns_per_event"] = ns
	m["eventsim.allocs_per_event"] = allocs
	// Step alone, for splitting a traced step's self time: fill, then
	// time the drain.
	stepNs, _ = probe(probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			sim.After(time.Duration(i%64)*time.Microsecond, noop)
		}
	}, func() {
		for i := 0; i < probeCalls; i++ {
			sim.Step()
		}
	})
	return stepNs
}

// probeNetmodel times Endpoint.Send of a lookup hop between attached
// endpoints with no traffic hook set. Destinations have no node bound, so
// draining the scheduled deliveries between batches costs nothing of note.
func probeNetmodel(topo *topology.Network, m map[string]float64) {
	sim := eventsim.New(1)
	nw := netmodel.New(sim, topo, 0)
	const n = 64
	first := topo.Attach(n, sim.Rand())
	eps := make([]*netmodel.Endpoint, n)
	for i := range eps {
		eps[i] = nw.NewEndpoint(first + i)
	}
	msg := sampleMessages(pastry.NodeRef{ID: id.New(1, 1), Addr: "0"}, nil, 0)[kindLookup]
	ns, allocs := probe(probeCalls, func() { sim.Run() }, func() {
		for i := 0; i < probeCalls; i++ {
			to := eps[(i+1)%n]
			eps[i%n].Send(pastry.NodeRef{Addr: to.Addr()}, msg)
		}
	})
	m["netmodel.send_ns_per_msg"] = ns
	m["netmodel.allocs_per_msg"] = allocs

	// Delays between attached pairs, shortest-path trees already cached.
	ns, _ = probe(probeCalls, nil, func() {
		for i := 0; i < probeCalls; i++ {
			topo.Delay(first+i%n, first+(i*7+3)%n)
		}
	})
	m["topology.delay_ns"] = ns
}

// sampleMessages builds one representative message of each counted kind,
// as node from would send them: a lookup hop carrying payload bytes, its
// ack, a heartbeat, a leaf-set probe carrying leaves (the commonest
// maintenance message that is not a heartbeat) and an empty direct message.
func sampleMessages(from pastry.NodeRef, leaves []pastry.NodeRef, payload int) [numKinds]pastry.Message {
	return [numKinds]pastry.Message{
		kindLookup: &pastry.Envelope{Xfer: 7, NeedAck: true, From: from, TrtHint: time.Minute,
			Lookup: &pastry.Lookup{Key: id.New(3, 4), Seq: 9, Origin: from, TraceID: 11, Issued: time.Second,
				Hops: 1, Payload: make([]byte, payload)}},
		kindAck:       &pastry.Ack{Xfer: 7, From: from, TrtHint: time.Minute},
		kindHeartbeat: &pastry.Heartbeat{From: from, TrtHint: time.Minute},
		kindOther:     &pastry.LSProbe{From: from, Leaves: leaves, TrtHint: time.Minute},
		kindApp:       &pastry.AppDirect{From: from},
	}
}

// weighted averages per-kind costs by how often the workload sent each
// kind.
func weighted(cost [numKinds]float64, mix [numKinds]int64) float64 {
	var sum, n float64
	for k := range cost {
		sum += cost[k] * float64(mix[k])
		n += float64(mix[k])
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// probeWire times the wire layer on the workload's message mix: the size
// computation (all the simulator asks of it) and, when codec is set, a
// full encode and decode as the UDP transport performs them.
func probeWire(msgs [numKinds]pastry.Message, mix [numKinds]int64, codec bool, m map[string]float64) {
	var size, enc, dec, allocs [numKinds]float64
	for k, msg := range msgs {
		msg := msg
		size[k], _ = probe(probeCalls, nil, func() {
			for i := 0; i < probeCalls; i++ {
				wire.SingleSize(pastry.MessageWireSize(msg))
			}
		})
		if !codec {
			continue
		}
		var encAllocs, decAllocs float64
		enc[k], encAllocs = probe(probeCalls, nil, func() {
			for i := 0; i < probeCalls; i++ {
				wire.EncodeSingle(msg)
			}
		})
		frame := wire.EncodeSingle(msg)
		dec[k], decAllocs = probe(probeCalls, nil, func() {
			for i := 0; i < probeCalls; i++ {
				if out, _, _, err := wire.DecodeAll(frame); err != nil || len(out) != 1 {
					panic(fmt.Sprintf("bench: wire round trip of %T: %v", msg, err))
				}
			}
		})
		allocs[k] = encAllocs + decAllocs
	}
	m["wire.size_ns_per_msg"] = weighted(size, mix)
	if codec {
		m["wire.encode_ns_per_msg"] = weighted(enc, mix)
		m["wire.decode_ns_per_msg"] = weighted(dec, mix)
		m["wire.allocs_per_msg"] = weighted(allocs, mix)
	}
}

// probeOverlay forms an overlay of the workload's size and protocol
// configuration in the simulator, every node on a simEnv, and returns the
// driver with the simulator stopped at the end of the join ramp.
func probeOverlay(topo *topology.Network, nodes int, pcfg pastry.Config) *simDriver {
	w := simWorkload{nodes: nodes}
	cfg := w.config(topo, 1, time.Second)
	cfg.Pastry = pcfg
	d := newSimDriver(cfg, true, nil)
	d.run()
	return d
}

// probePastry times Node.Receive and Node.Lookup on a node of a formed
// overlay, detached from the simulation: it keeps the routing state it
// built, but what it sends goes nowhere and its timers never fire.
// Lookups arrive with payload bytes, as the workload's do.
func probePastry(d *simDriver, payload int, m map[string]float64) [numKinds]pastry.Message {
	slot := &d.slots[len(d.slots)/2]
	node, null := slot.node, newNullEnv()
	null.now = d.sim.Now()
	slot.env.null = null
	members := node.Leaf().Members()
	if len(members) == 0 {
		panic("bench: probe node has an empty leaf set")
	}
	// Senders are leaf-set members: contact from a stranger would start
	// probes of its own.
	from := func(i int) pastry.NodeRef { return members[i%len(members)] }
	neighbour, _ := d.nw.Endpoint(from(0).Addr)
	msgs := sampleMessages(from(0), neighbour.Node().Leaf().Members(), payload)
	rng := rand.New(rand.NewSource(2))

	// Every forwarded lookup leaves a pending hop waiting for its ack;
	// answering them between batches keeps that table at batch size and
	// is itself the ack measurement. Each batch needs fresh envelopes:
	// the receiver takes ownership of a routed message.
	var hops []*pastry.Envelope
	fresh := func() {
		hops = hops[:0]
		for i := 0; i < probeCalls; i++ {
			env := *msgs[kindLookup].(*pastry.Envelope)
			lk := *env.Lookup
			lk.Key, lk.Seq = id.Random(rng), uint64(i)
			env.Lookup, env.From, env.Xfer = &lk, from(i), uint64(i)
			hops = append(hops, &env)
		}
	}
	var lookupNs, ackNs []float64
	for b := 0; b <= probeBatches; b++ {
		fresh()
		null.acks = null.acks[:0]
		t0 := time.Now()
		for _, env := range hops {
			node.Receive(env)
		}
		t1 := time.Now()
		acks := null.acks
		for _, a := range acks {
			node.Receive(a)
		}
		t2 := time.Now()
		if b == 0 || len(acks) == 0 {
			continue
		}
		lookupNs = append(lookupNs, float64(t1.Sub(t0).Nanoseconds())/probeCalls)
		ackNs = append(ackNs, float64(t2.Sub(t1).Nanoseconds())/float64(len(acks)))
	}
	m["pastry.receive_ns.lookup"] = median(lookupNs)
	m["pastry.receive_ns.ack"] = median(ackNs)

	m["pastry.receive_ns.heartbeat"], _ = probe(probeCalls, nil, func() {
		for i := 0; i < probeCalls; i++ {
			node.Receive(msgs[kindHeartbeat])
		}
	})
	m["pastry.receive_ns.probe"], _ = probe(probeCalls, nil, func() {
		for i := 0; i < probeCalls; i++ {
			node.Receive(msgs[kindOther])
		}
	})

	// Node.Lookup plus the zero-delay routing step it schedules.
	body := make([]byte, payload)
	m["pastry.lookup_ns"], _ = probe(probeCalls, func() {
		for _, a := range null.acks {
			node.Receive(a)
		}
		null.acks = null.acks[:0]
	}, func() {
		for i := 0; i < probeCalls; i++ {
			node.Lookup(id.Random(rng), body)
			null.drain()
		}
	})
	return msgs
}

// probePeer times Registry.Sweep over a registry of records peers, every
// record a member holding one prunable slot, as a node's steady state.
func probePeer(records int, m map[string]float64) {
	if records < 1 {
		records = 1
	}
	reg := peer.New(peer.Config{})
	slot := reg.NewSlot("probe", func(_ id.ID, v any, _ time.Duration, _ bool) any { return v })
	rng := rand.New(rand.NewSource(3))
	val := new(int)
	for i := 0; i < records; i++ {
		reg.Put(reg.Obtain(id.Random(rng), "", 0), slot, val)
	}
	member := func(id.ID) bool { return true }
	const sweeps = 64
	ns, _ := probe(sweeps*records, nil, func() {
		for i := 0; i < sweeps; i++ {
			reg.Sweep(time.Duration(i)*time.Second, member)
		}
	})
	m["peer.sweep_ns_per_record"] = ns
}

// probeTelemetry times one histogram observation plus one counter
// increment, what the overlay observer does per delivered lookup.
func probeTelemetry(m map[string]float64) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("probe_seconds", "", telemetry.DefBuckets)
	c := reg.Counter("probe_total", "")
	m["telemetry.observe_ns"], _ = probe(probeCalls, nil, func() {
		for i := 0; i < probeCalls; i++ {
			h.Observe(float64(i%100) / 100)
			c.Inc()
		}
	})
}

// probeStore times the memory backend with 1 KiB values: an Apply that
// supersedes the stored version, and a Get.
func probeStore(m map[string]float64) {
	mem := store.NewMemory()
	rng := rand.New(rand.NewSource(4))
	keys := make([]id.ID, probeCalls)
	for i := range keys {
		keys[i] = id.Random(rng)
	}
	value := make([]byte, kvValueBytes)
	version := uint64(0)
	m["store.apply_ns"], _ = probe(probeCalls, func() { version++ }, func() {
		for _, k := range keys {
			if ok, err := mem.Apply(store.Object{Key: k, Version: version, Value: value}); !ok || err != nil {
				panic("bench: store.Apply refused a newer version")
			}
		}
	})
	m["store.get_ns"], _ = probe(probeCalls, nil, func() {
		for _, k := range keys {
			if _, ok := mem.Get(k); !ok {
				panic("bench: store.Get lost a key")
			}
		}
	})
}

// probeDHT times a put and a get on a single-node store with no network:
// the lookup routes to the node itself, so the time is the dht's own
// request encoding, dispatch, storage call and completion.
func probeDHT(m map[string]float64) {
	null := newNullEnv()
	node, err := pastry.NewNode(pastry.NodeRef{ID: id.New(5, 5), Addr: "probe"}, livePastryConfig(), null, nil)
	if err != nil {
		panic(err)
	}
	node.Bootstrap()
	st := dht.New(node, null, dht.DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	keys := make([]id.ID, probeCalls)
	for i := range keys {
		keys[i] = id.Random(rng)
	}
	value := make([]byte, kvValueBytes)
	done := 0
	m["dht.put_ns_local"], _ = probe(probeCalls, nil, func() {
		for _, k := range keys {
			st.Put(k, value, func(err error) {
				if err == nil {
					done++
				}
			})
			null.drain()
		}
	})
	m["dht.get_ns_local"], _ = probe(probeCalls, nil, func() {
		for _, k := range keys {
			st.Get(k, func(v []byte, err error) {
				if err == nil && len(v) == len(value) {
					done++
				}
			})
			null.drain()
		}
	})
	if want := 2 * probeCalls * (probeBatches + 1); done != want {
		panic(fmt.Sprintf("bench: dht probe completed %d of %d operations", done, want))
	}
}

// pingApp bounces direct messages: the responder echoes, the initiator
// signals.
type pingApp struct {
	node *pastry.Node
	echo bool
	got  chan struct{}
}

func (a *pingApp) Deliver(*pastry.Lookup)      {}
func (a *pingApp) Forward(*pastry.Lookup) bool { return true }
func (a *pingApp) Direct(from pastry.NodeRef, payload []byte) {
	if a.echo {
		a.node.SendDirect(from, payload)
		return
	}
	a.got <- struct{}{}
}

// probeTransport times one datagram through the UDP transport — encode,
// socket write, kernel loopback, socket read, decode, event-loop hand-off
// and Node.Receive — as half a SendDirect round trip between two nodes,
// and the same exchange on two bare UDP sockets carrying frames of the
// same size: what the kernel and the Go runtime charge with no transport
// in the way.
func probeTransport(payload int, m map[string]float64) error {
	const rounds = 2000
	var trs [2]*transport.UDP
	var apps [2]*pingApp
	for i := range trs {
		tr, err := transport.Listen("127.0.0.1:0", int64(100+i))
		if err != nil {
			return err
		}
		defer tr.Close()
		node, err := tr.CreateNode(id.ID{}, livePastryConfig(), nil)
		if err != nil {
			return err
		}
		apps[i] = &pingApp{node: node, echo: i == 1, got: make(chan struct{}, 1)}
		node.SetApp(apps[i])
		trs[i] = tr
	}
	var peerRef pastry.NodeRef
	trs[0].DoSync(func(n *pastry.Node) { n.Bootstrap() })
	trs[1].DoSync(func(n *pastry.Node) { peerRef = n.Ref(); n.Join(apps[0].node.Ref()) })
	for active := false; !active; time.Sleep(time.Millisecond) {
		trs[1].DoSync(func(n *pastry.Node) { active = n.Active() })
	}
	body := make([]byte, payload)
	ping := func() error {
		trs[0].Do(func(n *pastry.Node) { n.SendDirect(peerRef, body) })
		select {
		case <-apps[0].got:
			return nil
		case <-time.After(opTimeout):
			return fmt.Errorf("transport probe: no echo within %v", opTimeout)
		}
	}
	var per []float64
	for b := 0; b <= probeBatches; b++ {
		t0 := time.Now()
		for i := 0; i < rounds/probeBatches; i++ {
			if err := ping(); err != nil {
				return err
			}
		}
		if b > 0 {
			per = append(per, float64(time.Since(t0).Microseconds())/float64(2*(rounds/probeBatches)))
		}
	}
	m["transport.us_per_datagram"] = median(per)

	frame := len(wire.EncodeSingle(&pastry.AppDirect{From: peerRef, Payload: body}))
	floor, err := udpFloor(frame, rounds)
	if err != nil {
		return err
	}
	m["transport.floor_us_per_datagram"] = floor
	return nil
}

// udpFloor ping-pongs size-byte datagrams between two bare sockets and
// returns the median microseconds per datagram.
func udpFloor(size, rounds int) (float64, error) {
	a, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		buf := make([]byte, 64*1024)
		for {
			n, from, err := b.ReadFromUDP(buf)
			if err != nil {
				return // closed
			}
			if _, err := b.WriteToUDP(buf[:n], from); err != nil {
				return
			}
		}
	}()
	defer func() {
		b.Close()
		<-echoDone
	}()
	out, in := make([]byte, size), make([]byte, 64*1024)
	dst := b.LocalAddr().(*net.UDPAddr)
	var per []float64
	for batch := 0; batch <= probeBatches; batch++ {
		t0 := time.Now()
		for i := 0; i < rounds/probeBatches; i++ {
			if _, err := a.WriteToUDP(out, dst); err != nil {
				return 0, err
			}
			if err := a.SetReadDeadline(time.Now().Add(opTimeout)); err != nil {
				return 0, err
			}
			if _, _, err := a.ReadFromUDP(in); err != nil {
				return 0, err
			}
		}
		if batch > 0 {
			per = append(per, float64(time.Since(t0).Microseconds())/float64(2*(rounds/probeBatches)))
		}
	}
	return median(per), nil
}
