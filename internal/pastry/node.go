package pastry

import (
	"fmt"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/peer"
	"mspastry/internal/secure"
)

// Node is one MSPastry overlay node. It is driven entirely by its Env:
// incoming messages arrive through Receive, and time-based behaviour runs
// off timers the node schedules. All methods must be called from the Env's
// serialised context.
type Node struct {
	cfg Config
	env Env
	obs Observer
	// tobs and sobs cache the observer's optional telemetry extensions
	// (detected once at construction; nil when not implemented).
	tobs TraceObserver
	sobs StatsObserver
	self NodeRef

	ls *LeafSet
	rt *RoutingTable

	alive  bool
	active bool

	joinStart  time.Duration
	joinSeed   NodeRef
	seedSource func() (NodeRef, bool)

	// peers is the unified per-peer state registry: liveness timestamps,
	// RTT estimators, self-tuning hints, probe-suppression memory,
	// overload protection and the reconnect graveyard all live in one
	// record per peer, with a single sweep (sweepPeers) driving their
	// lifecycle. The slot handles index each subsystem's state; see
	// peers.go for the slot value types and pruning rules.
	peers        *peer.Registry
	slotHint     peer.Slot
	slotSuppress peer.Slot
	slotOverload peer.Slot
	slotGrave    peer.Slot
	slotRTT      peer.Slot

	// probing tracks outstanding liveness probes (leaf-set and routing
	// table); failed holds nodes marked faulty; excluded holds nodes
	// temporarily routed around after a missed per-hop ack.
	probing  map[id.ID]*probeState
	failed   map[id.ID]NodeRef
	excluded map[id.ID]bool

	// secureSess tracks this origin's secure lookups awaiting a root
	// report; density is the id-space density estimate the routing
	// failure test compares reports against. See secure.go.
	secureSess map[uint64]*secureSession
	density    secure.Estimator

	lastReconnect time.Duration

	repairTimer Timer

	// Per-hop ack state.
	pending  map[uint64]*pendingHop
	nextXfer uint64

	// freeHops and freeProbes hold parked hop and probe records for reuse,
	// at most maxFree each: plain stacks, as netmodel.Network.free is, so a
	// simulated node takes the same path on every run.
	freeHops   []*pendingHop
	freeProbes []*probeState

	// issued queues this origin's lookups between Lookup and the zero-delay
	// callback that routes them (routeIssued, bound once as routeIssuedFn):
	// first in, first out, issuedHead the next one out.
	issued        []*Lookup
	issuedHead    int
	routeIssuedFn func()

	// Self-tuning state.
	failureHist []time.Duration
	trtLocal    time.Duration
	trtCurrent  time.Duration

	// Distance measurement sessions, keyed by target.
	distSessions map[id.ID]*distSession
	nextDistSeq  uint64
	distSeqs     map[uint64]*distSession

	lastMaintenance time.Duration

	// nn tracks the nearest-neighbour search during a join.
	nn *nnState

	// Lookups held while nextHop's verdict is hold (see holdLookup).
	holdBuffer []heldLookup

	nextLookupSeq uint64

	tickTimer Timer

	app App

	counters Counters

	// Scratch for the maintenance path, which runs on every tick and every
	// repair probe: values consumed before the handler returns. Anything
	// that goes into a message is copied out first — the simulator hands
	// the receiver the very object that was sent.
	refScratch  []NodeRef
	addrScratch map[string]struct{}
	trtScratch  []time.Duration
}

// Counters exposes protocol-internal tallies used by the evaluation. Each
// field's metric tag is the gauge a live node exports it as, and its help
// tag the gauge's description (telemetry.Registry.SetGauges).
type Counters struct {
	// SuppressedProbes counts routing-table probes and heartbeats that
	// application traffic made unnecessary.
	SuppressedProbes uint64 `metric:"mspastry_node_suppressed_probes" help:"Probes and heartbeats suppressed by application traffic."`
	// SentRTProbes counts routing-table liveness probes actually sent.
	SentRTProbes uint64 `metric:"mspastry_node_rt_probes_sent" help:"Routing-table liveness probes sent."`
	// SentReconnectProbes counts reconnect-cache pings to peers
	// previously marked faulty (tallied separately from SentRTProbes:
	// the reconnect cache is orthogonal to the ActiveProbing ablation).
	SentReconnectProbes uint64 `metric:"mspastry_node_reconnect_probes_sent" help:"Reconnect-cache pings to peers previously marked faulty."`
	// SentHeartbeats counts heartbeats actually sent.
	SentHeartbeats uint64 `metric:"mspastry_node_heartbeats_sent" help:"Left-neighbour heartbeats sent."`
	// Retransmits counts per-hop retransmissions.
	Retransmits uint64 `metric:"mspastry_node_retransmits" help:"Per-hop retransmissions (node counter)."`
	// FalsePositives counts nodes marked faulty that later proved alive
	// (they contacted us after being marked).
	FalsePositives uint64 `metric:"mspastry_node_false_positives" help:"Nodes marked faulty that later proved alive."`
	// DeliveredLookups counts lookups delivered by this node as root.
	DeliveredLookups uint64 `metric:"mspastry_node_delivered_lookups" help:"Lookups delivered as root (node counter)."`
	// RetryBudgetExhausted counts repeat sends suppressed because the
	// destination peer's retry budget ran dry.
	RetryBudgetExhausted uint64 `metric:"mspastry_node_retry_budget_exhausted" help:"Retransmissions suppressed by the per-peer retry budget."`
	// BreakerOpens counts circuit breakers tripped by consecutive missed
	// acks; BreakerReopens counts failed half-open recovery trials;
	// BreakerCloses counts recoveries (breakers closed by a success).
	BreakerOpens   uint64 `metric:"mspastry_node_breaker_opens" help:"Per-peer circuit breakers tripped open."`
	BreakerReopens uint64 `metric:"mspastry_node_breaker_reopens" help:"Half-open breaker probes that failed and reopened the breaker."`
	BreakerCloses  uint64 `metric:"mspastry_node_breaker_closes" help:"Breakers closed by a successful interaction."`
	// SecureReports counts root completion reports received for this
	// origin's secure lookups; SecureTestPass/SecureTestFail count the
	// routing failure test's verdicts on them.
	SecureReports  uint64 `metric:"mspastry_node_secure_reports" help:"Root completion reports evaluated by the routing failure test."`
	SecureTestPass uint64 `metric:"mspastry_node_secure_test_pass" help:"Root reports that passed the routing failure test."`
	SecureTestFail uint64 `metric:"mspastry_node_secure_test_fail" help:"Root reports that failed the routing failure test."`
	// SecureRedundantRounds counts redundant diverse-path rounds issued
	// (on a failed test or report timeout); SecureRedundantSends counts
	// the individual first-hop copies those rounds sent.
	SecureRedundantRounds uint64 `metric:"mspastry_node_secure_redundant_rounds" help:"Redundant diverse-path rounds issued for suspect lookups."`
	SecureRedundantSends  uint64 `metric:"mspastry_node_secure_redundant_sends" help:"Lookup copies sent by redundant diverse-path rounds."`
	// SecureDistrusted counts peers confirmed bad by cross-path voting
	// and fed into the exclusion/breaker machinery.
	SecureDistrusted uint64 `metric:"mspastry_node_secure_distrusted" help:"Peers distrusted after a failed test lost the report vote."`
	// SecureGiveUps counts secure lookups that exhausted every redundant
	// round without an accepted root report.
	SecureGiveUps uint64 `metric:"mspastry_node_secure_giveups" help:"Secure lookups that exhausted every redundant round without an accepted report."`
}

// Add accumulates o into c, field by field: how a run totals the
// counters of every node instance it hosted.
func (c *Counters) Add(o Counters) {
	c.SuppressedProbes += o.SuppressedProbes
	c.SentRTProbes += o.SentRTProbes
	c.SentReconnectProbes += o.SentReconnectProbes
	c.SentHeartbeats += o.SentHeartbeats
	c.Retransmits += o.Retransmits
	c.FalsePositives += o.FalsePositives
	c.DeliveredLookups += o.DeliveredLookups
	c.RetryBudgetExhausted += o.RetryBudgetExhausted
	c.BreakerOpens += o.BreakerOpens
	c.BreakerReopens += o.BreakerReopens
	c.BreakerCloses += o.BreakerCloses
	c.SecureReports += o.SecureReports
	c.SecureTestPass += o.SecureTestPass
	c.SecureTestFail += o.SecureTestFail
	c.SecureRedundantRounds += o.SecureRedundantRounds
	c.SecureRedundantSends += o.SecureRedundantSends
	c.SecureDistrusted += o.SecureDistrusted
	c.SecureGiveUps += o.SecureGiveUps
}

// probeState is one outstanding liveness probe, a node-local record taken
// from Node.freeProbes and parked there when the probe completes (see
// startProbe, parkProbe).
type probeState struct {
	n       *Node  // owner; set with fire at first allocation, kept across reuse
	fire    func() // the timeout method value, bound once
	ref     NodeRef
	isLeaf  bool // leaf-set probe (LSProbe) vs routing-table ping
	retries int
	timer   Timer
	// announce marks probes started by first-hand failure suspicion
	// (missed heartbeat or missed per-hop ack): if such a probe times
	// out, the failure is announced to the rest of the leaf set.
	// Confirmation and repair probes never re-announce — otherwise one
	// failure would cascade into l^2 probe traffic.
	announce bool
	// reconnect marks reconnect-cache probes: a timeout restores the
	// failure record without re-counting the failure or announcing.
	reconnect bool
}

// pendingHop is the bookkeeping of one acked hop (or join request) awaiting
// its ack, a node-local record taken from Node.freeHops and parked there
// when the hop completes (see takeHop, parkHop).
type pendingHop struct {
	n        *Node  // owner; set with fire at first allocation, kept across reuse
	fire     func() // the timeout method value, bound once
	xfer     uint64 // the transmission the armed timer guards
	lookup   *Lookup
	join     *JoinRequest
	key      id.ID
	to       NodeRef
	attempts int
	// tried holds next hops already attempted for this message.
	tried  triedSet
	timer  Timer
	sentAt time.Duration
	retx   bool
}

// NewNode creates a node with the given identity. The node is inert until
// Bootstrap or Join is called.
func NewNode(self NodeRef, cfg Config, env Env, obs Observer) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if obs == nil {
		obs = NopObserver{}
	}
	n := &Node{
		cfg:          cfg,
		env:          env,
		obs:          obs,
		self:         self,
		ls:           NewLeafSet(self.ID, cfg.L),
		rt:           NewRoutingTable(self.ID, cfg.B),
		alive:        true,
		probing:      make(map[id.ID]*probeState),
		failed:       make(map[id.ID]NodeRef),
		excluded:     make(map[id.ID]bool),
		pending:      make(map[uint64]*pendingHop),
		distSessions: make(map[id.ID]*distSession),
		distSeqs:     make(map[uint64]*distSession),
		secureSess:   make(map[uint64]*secureSession),
		addrScratch:  make(map[string]struct{}),
	}
	n.routeIssuedFn = n.routeIssued
	n.initPeers()
	n.tobs, _ = obs.(TraceObserver)
	n.sobs, _ = obs.(StatsObserver)
	n.trtCurrent = n.initialTrt()
	n.trtLocal = n.trtCurrent
	return n, nil
}

func (n *Node) initialTrt() time.Duration {
	return clampDuration(60*time.Second, n.cfg.MinTrt(), maxTrt)
}

// Ref returns the node's identity.
func (n *Node) Ref() NodeRef { return n.self }

// Now returns the node's current clock reading (virtual time in the
// simulator, monotonic wall time over a real transport). Exposed for
// observers, which have no Env of their own.
func (n *Node) Now() time.Duration { return n.env.Now() }

// Active reports whether the node has completed its join.
func (n *Node) Active() bool { return n.active }

// Alive reports whether the node has not crashed.
func (n *Node) Alive() bool { return n.alive }

// Leaf returns the node's leaf set (read-only access for tests/metrics).
func (n *Node) Leaf() *LeafSet { return n.ls }

// Table returns the node's routing table (read-only access).
func (n *Node) Table() *RoutingTable { return n.rt }

// Trt returns the current routing-table probing period.
func (n *Node) Trt() time.Duration { return n.trtCurrent }

// Stats returns a snapshot of the node's internal counters.
func (n *Node) Stats() Counters { return n.counters }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// SetApp installs the application layer. Must be called before the node
// joins the overlay.
func (n *Node) SetApp(app App) { n.app = app }

// SendDirect sends a point-to-point application message to another node
// (outside overlay routing), delivered to the peer's App.Direct.
func (n *Node) SendDirect(to NodeRef, payload []byte) {
	if !n.alive {
		return
	}
	n.send(to, &AppDirect{From: n.self, Payload: payload})
}

// SetSeedSource installs a callback used to obtain a fresh seed when a
// join stalls (for example because the original seed crashed mid-join).
func (n *Node) SetSeedSource(f func() (NodeRef, bool)) { n.seedSource = f }

// Bootstrap makes this node the first member of a new overlay: it becomes
// active immediately with empty routing state.
func (n *Node) Bootstrap() {
	if !n.alive || n.active {
		return
	}
	n.joinStart = n.env.Now()
	n.activate()
}

// Join starts the join protocol through the given seed node. With PNS
// enabled the node first runs the nearest-neighbour algorithm to find a
// nearby seed, then routes a join request to its own identifier.
func (n *Node) Join(seed NodeRef) {
	if !n.alive || n.active {
		return
	}
	n.joinStart = n.env.Now()
	n.joinSeed = seed
	if n.cfg.PNS {
		n.startNearestNeighbour(seed)
		return
	}
	n.sendJoinRequest(seed)
}

// Fail crashes the node: it stops responding to messages and timers. This
// models the fail-stop departures injected by the churn traces. Lookups
// only this node had — held, or issued and not yet routed — are reported
// dropped (DropBuffer); one on a pending hop is not, as a copy may be in
// flight and still arrive.
func (n *Node) Fail() {
	if !n.alive {
		return
	}
	n.alive = false
	n.active = false
	for _, h := range n.holdBuffer {
		n.obs.LookupDropped(n, h.lk, DropBuffer)
	}
	n.holdBuffer = nil
	for _, lk := range n.issued[n.issuedHead:] {
		n.obs.LookupDropped(n, lk, DropBuffer)
	}
	stop(n.tickTimer)
	stop(n.repairTimer)
	n.tickTimer, n.repairTimer = nil, nil
	for _, ps := range n.probing {
		stop(ps.timer)
	}
	for _, ph := range n.pending {
		stop(ph.timer)
	}
	for _, ds := range n.distSessions {
		stop(ds.timer)
	}
	for _, ss := range n.secureSess {
		stop(ss.timer)
	}
}

// Lookup routes an application lookup to the root of key. It returns the
// sequence number identifying the lookup at this origin. Lookups can be
// issued before activation; they are held and routed once active.
func (n *Node) Lookup(key id.ID, payload []byte) (uint64, bool) {
	if !n.alive {
		return 0, false
	}
	n.nextLookupSeq++
	lk := &Lookup{
		Key:     key,
		Seq:     n.nextLookupSeq,
		Origin:  n.self,
		Issued:  n.env.Now(),
		NoAck:   !n.cfg.PerHopAcks,
		Payload: payload,
	}
	lk.TraceID = deriveTraceID(n.self, lk.Seq, lk.Issued)
	if n.cfg.SecureRouting {
		lk.WantReport = true
		n.startSecureSession(lk)
	}
	if n.tobs != nil {
		n.tobs.LookupIssued(n, lk)
	}
	// Route asynchronously so the caller observes the sequence number
	// before any delivery callback can fire (the origin may itself be the
	// key's root, in which case routing delivers immediately).
	n.issued = append(n.issued, lk)
	n.env.Schedule(0, n.routeIssuedFn)
	return lk.Seq, true
}

// routeIssued routes the oldest queued lookup. Lookup schedules one call
// per lookup, so each call takes exactly one — also on a node that crashed
// in between, which reported it dropped (Fail).
func (n *Node) routeIssued() {
	lk := n.issued[n.issuedHead]
	n.issued[n.issuedHead] = nil
	n.issuedHead++
	if n.issuedHead == len(n.issued) {
		n.issued, n.issuedHead = n.issued[:0], 0
	}
	if n.alive {
		n.routeLookup(lk, n.env.Now())
	}
}

// LookupSecure issues a lookup that is redundant from the start: besides
// the normal route, a diverse-path round goes out immediately rather
// than only after a failed test or timeout. The DHT uses it for writes,
// where a captured lookup silently strands the data on the wrong node.
// Falls back to a plain Lookup when secure routing is off.
func (n *Node) LookupSecure(key id.ID, payload []byte) (uint64, bool) {
	seq, ok := n.Lookup(key, payload)
	if !ok || !n.cfg.SecureRouting {
		return seq, ok
	}
	n.schedule(0, func() {
		if ss, live := n.secureSess[seq]; live {
			n.redundantRound(ss)
		}
	})
	return seq, true
}

// Receive processes one incoming message. The sender is identified by the
// message's From field; receipt of any message refreshes the sender's
// liveness.
func (n *Node) Receive(m Message) {
	if !n.alive {
		return
	}
	switch msg := m.(type) {
	case *Envelope:
		n.noteContact(msg.From, msg.TrtHint)
		n.handleEnvelope(msg)
	case *Ack:
		n.noteContact(msg.From, msg.TrtHint)
		n.handleAck(msg)
	case *LSProbe:
		n.noteContact(msg.From, msg.TrtHint)
		n.handleLSProbe(msg)
	case *LSProbeReply:
		n.noteContact(msg.From, msg.TrtHint)
		n.handleLSProbeReply(msg)
	case *Heartbeat:
		n.noteContact(msg.From, msg.TrtHint)
	case *RTProbe:
		n.noteContact(msg.From, msg.TrtHint)
		n.send(msg.From, &RTProbeReply{From: n.self, TrtHint: n.trtLocal})
	case *RTProbeReply:
		n.noteContact(msg.From, msg.TrtHint)
		n.handleRTProbeReply(msg)
	case *JoinReply:
		n.handleJoinReply(msg)
	case *DistProbe:
		n.noteContact(msg.From, 0)
		n.send(msg.From, &DistProbeReply{From: n.self, Seq: msg.Seq})
	case *DistProbeReply:
		n.noteContact(msg.From, 0)
		n.handleDistProbeReply(msg)
	case *DistReport:
		n.noteContact(msg.From, 0)
		n.handleDistReport(msg)
	case *RowRequest:
		n.noteContact(msg.From, 0)
		n.send(msg.From, &RowReply{From: n.self, Row: msg.Row, Entries: n.rt.Row(msg.Row)})
	case *RowReply:
		n.noteContact(msg.From, 0)
		n.handleRowEntries(append(msg.Entries, msg.From), false)
	case *RowAnnounce:
		// A join announcement: always measure the newcomer itself; the
		// other row entries only fill gaps (periodic maintenance handles
		// slot improvement).
		n.noteContact(msg.From, 0)
		n.handleRowEntries([]NodeRef{msg.From}, false)
		n.handleRowEntries(msg.Entries, true)
	case *RepairRequest:
		n.noteContact(msg.From, 0)
		n.handleRepairRequest(msg)
	case *RepairReply:
		n.noteContact(msg.From, 0)
		n.handleRowEntries(msg.Entries, true)
	case *NNStateRequest:
		n.noteContact(msg.From, 0)
		n.send(msg.From, &NNStateReply{From: n.self, Leaves: n.ls.Members(), Entries: n.rt.Entries()})
	case *NNStateReply:
		n.noteContact(msg.From, 0)
		n.handleNNStateReply(msg)
	case *AppDirect:
		n.noteContact(msg.From, 0)
		if n.app != nil {
			n.app.Direct(msg.From, msg.Payload)
		}
	case *RootReport:
		n.noteContact(msg.From, msg.TrtHint)
		n.handleRootReport(msg)
	default:
		panic(fmt.Sprintf("pastry: unknown message %T", m))
	}
}

// noteContact records that a message was received directly from the peer.
// Direct contact is what authorises inserting a node into routing state
// (the paper's anti-propagation rule for dead nodes), refreshes failure
// detection (probe suppression) and carries self-tuning hints.
func (n *Node) noteContact(from NodeRef, hint time.Duration) {
	if from.IsZero() || from.ID == n.self.ID {
		return
	}
	now := n.env.Now()
	rec := n.peers.Obtain(from.ID, from.Addr, now)
	rec.LastRecv = now
	if _, wasFailed := n.failed[from.ID]; wasFailed {
		// A node we marked faulty is alive after all: false positive.
		delete(n.failed, from.ID)
		n.counters.FalsePositives++
	}
	n.forgetFailed(from)
	// Opportunistic routing-table fill: we heard from the node directly.
	n.rt.Add(from)
	// A direct sender that belongs in our leaf set but is missing from it
	// (for example after a false positive was announced and repaired
	// around) is probed so the leaf set re-admits it. Direct contact
	// satisfies the insertion discipline; probing, rather than inserting
	// outright, also exchanges leaf-set state.
	if n.active && !n.ls.Contains(from.ID) && n.wouldExtendLeafSet(from) &&
		n.markCandidateProbe(from) {
		n.probeLeaf(from)
	}
	if hint > 0 {
		n.setTrtHint(rec, hint)
	}
}

// markCandidateProbe records a leaf-candidate probe attempt and reports
// whether the candidate is due (not probed within the heartbeat period).
func (n *Node) markCandidateProbe(ref NodeRef) bool {
	now := n.env.Now()
	s := n.suppressOf(n.peers.Obtain(ref.ID, ref.Addr, now))
	if s.lsCandidate != 0 && now-s.lsCandidate < n.cfg.Tls {
		return false
	}
	s.lsCandidate = now
	return true
}

// send transmits a message and records the contact for suppression.
func (n *Node) send(to NodeRef, m Message) {
	if to.ID != n.self.ID {
		now := n.env.Now()
		n.peers.Obtain(to.ID, to.Addr, now).LastSent = now
	}
	if n.sobs != nil {
		env, isEnv := m.(*Envelope)
		n.sobs.MessageSent(n, m.Category(), isEnv && env.Retx)
	}
	n.env.Send(to, m)
}

// deriveTraceID computes the lookup trace identifier: FNV-1a over the
// origin's identity, sequence number and issue time. Deterministic — no
// random draw — so enabling tracing does not shift a simulation's seeded
// random streams.
func deriveTraceID(origin NodeRef, seq uint64, issued time.Duration) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for _, b := range origin.ID.Bytes() {
		mix(b)
	}
	for i := 0; i < len(origin.Addr); i++ {
		mix(origin.Addr[i])
	}
	for i := 0; i < 8; i++ {
		mix(byte(seq >> (8 * i)))
	}
	v := uint64(issued)
	for i := 0; i < 8; i++ {
		mix(byte(v >> (8 * i)))
	}
	if h == 0 {
		h = 1 // zero means "untraced"
	}
	return h
}

// schedule wraps Env.Schedule with a liveness guard so callbacks never run
// on a crashed node.
func (n *Node) schedule(d time.Duration, fn func()) Timer {
	return n.env.Schedule(d, func() {
		if n.alive {
			fn()
		}
	})
}

// activate marks the node active, replays held messages and starts the
// periodic maintenance tick.
func (n *Node) activate() {
	n.active = true
	clear(n.failed)
	n.obs.Activated(n, n.env.Now()-n.joinStart)
	n.lastMaintenance = n.env.Now()
	n.startTick()
	n.announceRows()
	n.releaseHeld()
}

func (n *Node) startTick() {
	if n.tickTimer != nil {
		return
	}
	var tick func()
	tick = func() {
		n.tickTimer = n.schedule(n.cfg.TickInterval, tick)
		n.onTick()
	}
	// Desynchronise ticks across nodes.
	first := time.Duration(n.env.Rand().Int63n(int64(n.cfg.TickInterval)))
	n.tickTimer = n.schedule(first, tick)
}

// onTick runs the periodic maintenance: heartbeats, right-neighbour
// failure suspicion, routing-table liveness probing, self-tuning and
// periodic routing-table maintenance.
func (n *Node) onTick() {
	if !n.active {
		return
	}
	now := n.env.Now()
	n.sendHeartbeats(now)
	n.checkRightNeighbour(now)
	if n.cfg.ActiveProbing {
		n.scanRoutingTable(now)
	}
	n.retune(now)
	if n.cfg.PNS && n.cfg.RTMaintenance > 0 && now-n.lastMaintenance >= n.cfg.RTMaintenance {
		n.lastMaintenance = now
		n.periodicMaintenance()
	}
	if now-n.lastReconnect >= reconnectInterval {
		n.lastReconnect = now
		n.retryReconnect(now)
	}
	n.sweepPeers()
	n.releaseHeld()
}

// heldLookup is a held lookup and when this node first held it.
type heldLookup struct {
	lk    *Lookup
	since time.Duration
}

// holdLookup buffers a lookup nextHop neither forwards nor delivers; since
// is when this node first held it. A lookup held for MinTrt — by then the
// probe of any suspect has resolved — is dropped (DropHeld) instead of
// held again. Holds are re-routed at every tick (releaseHeld), so one is
// dropped within MinTrt + TickInterval (24 s by default) of its first.
func (n *Node) holdLookup(lk *Lookup, since time.Duration) {
	const maxHeld = 256
	switch {
	case n.env.Now()-since >= n.cfg.MinTrt():
		n.obs.LookupDropped(n, lk, DropHeld)
	case len(n.holdBuffer) >= maxHeld:
		n.obs.LookupDropped(n, lk, DropBuffer)
	default:
		n.holdBuffer = append(n.holdBuffer, heldLookup{lk, since})
	}
}

// releaseHeld re-routes the hold buffer: on activation, when the last
// outstanding probe completes, and at every tick, since what lifts a hold
// — a probe reply, a breaker's cooldown running out — need not be either
// of the first two. Routing state may have changed, so each lookup goes
// through the full route function again.
func (n *Node) releaseHeld() {
	if len(n.holdBuffer) == 0 {
		return
	}
	held := n.holdBuffer
	n.holdBuffer = nil
	for _, h := range held {
		n.routeLookup(h.lk, h.since)
	}
}
