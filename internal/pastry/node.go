package pastry

import (
	"fmt"
	"reflect"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/peer"
)

// Node is one MSPastry overlay node. It is driven entirely by its Env:
// incoming messages arrive through Receive, and time-based behaviour runs
// off timers the node schedules. All methods must be called from the Env's
// serialised context.
type Node struct {
	cfg Config
	env Env
	obs Observer
	// tobs and sobs cache the observer's optional telemetry extensions.
	tobs TraceObserver
	sobs StatsObserver
	self NodeRef

	ls *LeafSet
	rt *RoutingTable

	alive  bool
	active bool

	// joinBegan is when Join or Bootstrap was called: activation reports
	// its latency from there. joinStart is when the join was last
	// (re)started, for its watchdog and the failure-rate estimator.
	joinBegan  time.Duration
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
	// table); failed holds nodes marked faulty, written only through
	// setFailed, unsetFailed and clearFailed, which drop failedSnap, the
	// list failedList last built from it; excluded holds nodes
	// temporarily routed around after a missed per-hop ack.
	probing    map[id.ID]*probeState
	failed     map[id.ID]NodeRef
	failedSnap []NodeRef
	excluded   map[id.ID]bool

	// candidates lists, by clockwise distance from this node, the targets
	// of the probes in n.probing marked candidate: the places the leaf set
	// has promised (canEnter). deferred holds the candidates turned away
	// only because those places were taken, to be weighed again as each
	// probe resolves or first times out (recheckDeferred). Both are
	// allocated at capacity L on first use and reused as probes come and
	// go.
	candidates []id.ID
	deferred   []NodeRef

	lastReconnect time.Duration

	// Per-hop ack state.
	pending  map[uint64]*pendingHop
	nextXfer uint64

	// freeHops, freeProbes and freeDists hold parked hop, probe and
	// distance-session records for reuse (at most maxFree, maxFree and
	// maxFreeDists): plain stacks, as netmodel.Network.free is, so a
	// simulated node takes the same path on every run.
	freeHops   []*pendingHop
	freeProbes []*probeState
	freeDists  []*distSession

	// issued queues this origin's lookups between Lookup and the zero-delay
	// timer that routes them (routeIssued): first in, first out, issuedHead
	// the next one out.
	issued     []*Lookup
	issuedHead int

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

	// The node's own timer slots (arm); records carry their own.
	tickAlarm, repairAlarm, joinAlarm, nnAlarm, issuedAlarm Alarm
	// repairArmed is set while repairAlarm is pending: a paced-out repair
	// waits for it (repairProbe).
	repairArmed bool

	app App

	counters Counters

	// Scratch for the maintenance path, which runs on every tick and every
	// repair probe, and for a join's search rounds: values consumed before
	// the handler returns. Anything that goes into a message is copied out
	// first — the simulator hands the receiver the very object that was
	// sent.
	refScratch  []NodeRef
	rankScratch []rankKey
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
	// SentRepairRequests counts passive routing-table repair requests
	// sent for a slot a route found empty or its occupant excluded.
	SentRepairRequests uint64 `metric:"mspastry_node_repair_requests_sent" help:"Passive routing-table repair requests sent."`
	// SentCandidateProbes counts leaf-set probes sent to a node outside
	// the leaf set; UnusedCandidateReplies counts their replies whose
	// sender did not enter it.
	SentCandidateProbes    uint64 `metric:"mspastry_node_candidate_probes_sent" help:"Leaf-set probes sent to a node outside the leaf set."`
	UnusedCandidateReplies uint64 `metric:"mspastry_node_candidate_replies_unused" help:"Candidate probe replies whose sender did not enter the leaf set."`
	// SentHeartbeats counts heartbeats actually sent.
	SentHeartbeats uint64 `metric:"mspastry_node_heartbeats_sent" help:"Left-neighbour heartbeats sent."`
	// Retransmits counts per-hop ack timeouts (hopTimeout, for lookups
	// and join requests); the retransmissions they lead to are the
	// observer's mspastry_hop_retransmits_total.
	Retransmits uint64 `metric:"mspastry_node_retransmits" help:"Per-hop ack timeouts of lookup and join-request hops."`
	// FalsePositives counts nodes marked faulty that later proved alive
	// (they contacted us after being marked).
	FalsePositives uint64 `metric:"mspastry_node_false_positives" help:"Nodes marked faulty that later proved alive."`
	// RetryBudgetExhausted counts repeat sends suppressed because the
	// destination peer's retry budget ran dry.
	RetryBudgetExhausted uint64 `metric:"mspastry_node_retry_budget_exhausted" help:"Retransmissions suppressed by the per-peer retry budget."`
	// BreakerOpens counts circuit breakers tripped by consecutive missed
	// acks; BreakerReopens counts failed half-open recovery trials;
	// BreakerCloses counts recoveries (breakers closed by a success).
	BreakerOpens   uint64 `metric:"mspastry_node_breaker_opens" help:"Per-peer circuit breakers tripped open."`
	BreakerReopens uint64 `metric:"mspastry_node_breaker_reopens" help:"Half-open breaker probes that failed and reopened the breaker."`
	BreakerCloses  uint64 `metric:"mspastry_node_breaker_closes" help:"Breakers closed by a successful interaction."`
}

// Add accumulates o into c, field by field: how a run totals the
// counters of every node instance it hosted.
func (c *Counters) Add(o Counters) {
	dst, src := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := range dst.NumField() {
		dst.Field(i).SetUint(dst.Field(i).Uint() + src.Field(i).Uint())
	}
}

// probeState is one outstanding liveness probe, a node-local record taken
// from Node.freeProbes and parked there when the probe completes (see
// startProbe, parkProbe).
type probeState struct {
	Alarm   // the timeout; its callback is bound once and kept across reuse
	ref     NodeRef
	isLeaf  bool // leaf-set probe (LSProbe) vs routing-table ping
	retries int
	// announce marks probes started by first-hand failure suspicion
	// (missed heartbeat or missed per-hop ack): if such a probe times
	// out, the failure is announced to the rest of the leaf set.
	// Confirmation and repair probes never re-announce — otherwise one
	// failure would cascade into l^2 probe traffic.
	announce bool
	// reconnect marks reconnect-cache probes: a timeout restores the
	// failure record without re-counting the failure or announcing.
	reconnect bool
	// candidate marks a leaf probe of a node outside the leaf set: its
	// reply may insert it, so it holds a place (Node.candidates) until the
	// probe first times out.
	candidate bool
	// rightGone marks a probe of the right neighbour a peer's Failed
	// list removed: this node was the one watching its heartbeats, so a
	// timeout is announced although the node is no longer a member.
	rightGone bool
}

// pendingHop is the bookkeeping of one acked hop (or join request) awaiting
// its ack, a node-local record taken from Node.freeHops and parked there
// when the hop completes (see takeHop, parkHop).
type pendingHop struct {
	Alarm           // the timeout; its callback is bound once and kept across reuse
	xfer     uint64 // the transmission the armed timer guards
	lookup   *Lookup
	join     *JoinRequest
	key      id.ID
	to       NodeRef
	attempts int
	// tried holds next hops already attempted for this message.
	tried  triedSet
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
		addrScratch:  make(map[string]struct{}),
	}
	n.initPeers()
	n.tobs, _ = obs.(TraceObserver)
	n.sobs, _ = obs.(StatsObserver)
	n.trtCurrent = n.initialTrt()
	n.trtLocal = n.trtCurrent
	return n, nil
}

func (n *Node) initialTrt() time.Duration {
	return min(max(60*time.Second, n.cfg.MinTrt()), maxTrt)
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

// handleAppDirect hands a point-to-point message to the application.
func (n *Node) handleAppDirect(m *AppDirect) {
	if n.app != nil {
		n.app.Direct(m.From, m.Payload)
	}
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
	n.joinBegan, n.joinStart = n.env.Now(), n.env.Now()
	n.activate()
}

// Join starts the join protocol through the given seed node. With PNS
// enabled the node first runs the nearest-neighbour algorithm to find a
// nearby seed, then routes a join request to its own identifier.
func (n *Node) Join(seed NodeRef) {
	if !n.alive || n.active {
		return
	}
	n.joinBegan, n.joinStart = n.env.Now(), n.env.Now()
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
	n.issued, n.issuedHead = nil, 0
	n.tickAlarm.Stop()
	n.repairAlarm.Stop()
	for _, ps := range n.probing {
		ps.Stop()
	}
	for _, ph := range n.pending {
		ph.Stop()
	}
	for _, ds := range n.distSessions {
		ds.deadline.Stop()
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
	lk := n.newLookup(key, n.nextLookupSeq, n.env.Now(), payload)
	if n.tobs != nil {
		n.tobs.LookupIssued(n, lk)
	}
	// Route asynchronously so the caller observes the sequence number
	// before any delivery callback can fire (the origin may itself be the
	// key's root, in which case routing delivers immediately).
	n.issued = append(n.issued, lk)
	n.arm(timerIssued, 0, &n.issuedAlarm, nil)
	return lk.Seq, true
}

// SendCopy sends a copy of a lookup this node issued (Key, Seq, Issued and
// Payload are read from lk) to the first hop to. The copy keeps the
// original's sequence number, trace id and issue time, so the origin's
// observers count whichever copy is delivered first, and starts a fresh
// path: its hop count is zero.
func (n *Node) SendCopy(lk Lookup, to NodeRef) {
	if !n.alive {
		return
	}
	cp := n.newLookup(lk.Key, lk.Seq, lk.Issued, lk.Payload)
	n.sendHop(cp, nil, cp.Key, to, nil, !cp.NoAck)
}

// originLookup is what an origin allocates per lookup it sends: the lookup
// and the envelope its first hop goes out in (spareEnvelope).
type originLookup struct {
	lk  Lookup
	env Envelope
}

// newLookup builds a lookup this node originates.
func (n *Node) newLookup(key id.ID, seq uint64, issued time.Duration, payload []byte) *Lookup {
	o := &originLookup{lk: Lookup{Key: key, Seq: seq, Origin: n.self, TraceID: deriveTraceID(n.self, seq, issued),
		Issued: issued, NoAck: !n.cfg.PerHopAcks, Payload: payload}}
	o.lk.spareEnv, o.env.Lookup = &o.env, &o.lk
	return &o.lk
}

// routeIssued routes the oldest queued lookup. Lookup arms one timer per
// lookup, so each call takes exactly one; a crash empties the queue and
// reports what it held dropped (Fail), and its timers run nothing.
func (n *Node) routeIssued() {
	lk := n.issued[n.issuedHead]
	n.issued[n.issuedHead] = nil
	n.issuedHead++
	if n.issuedHead == len(n.issued) {
		n.issued, n.issuedHead = n.issued[:0], 0
	}
	n.routeLookup(lk, n.env.Now())
}

// Receive processes one incoming message: it notes contact with the
// sender, whose receipt of any message refreshes its liveness, then runs
// the message type's rule.
func (n *Node) Receive(m Message) {
	if !n.alive {
		return
	}
	if c, ok := m.(contact); ok {
		n.noteContact(c.sender())
	}
	switch msg := m.(type) {
	case *Envelope:
		n.handleEnvelope(msg)
	case *Ack:
		n.handleAck(msg)
	case *LSProbe:
		n.handleLSProbe(msg)
	case *LSProbeReply:
		n.handleLSProbeReply(msg)
	case *Heartbeat:
		n.handleHeartbeat(msg)
	case *RTProbe:
		n.handleRTProbe(msg)
	case *RTProbeReply:
		n.handleRTProbeReply(msg)
	case *JoinReply:
		n.handleJoinReply(msg)
	case *DistProbe:
		n.handleDistProbe(msg)
	case *DistProbeReply:
		n.handleDistProbeReply(msg)
	case *DistReport:
		n.handleDistReport(msg)
	case *RowRequest:
		n.handleRowRequest(msg)
	case *RowReply:
		n.handleRowReply(msg)
	case *RowAnnounce:
		n.handleRowAnnounce(msg)
	case *RepairRequest:
		n.handleRepairRequest(msg)
	case *RepairReply:
		n.handleRepairReply(msg)
	case *NNStateRequest:
		n.handleNNStateRequest(msg)
	case *NNStateReply:
		n.handleNNStateReply(msg)
	case *AppDirect:
		n.handleAppDirect(msg)
	default:
		panic(fmt.Sprintf("pastry: unknown message %T", m))
	}
}

// timerKind names the rule a timer runs. Every timer the node arms has a
// kind (arm), and fire dispatches on it.
type timerKind uint8

const (
	timerTick timerKind = iota
	timerHop
	timerProbe
	timerRepairRetry
	timerJoinRetry
	timerNNGiveUp
	timerDistProbe
	timerDistDeadline
	timerIssued
	timerKinds // the number of kinds
)

// timerRules names the rule method each kind of timer runs.
var timerRules = [timerKinds]string{
	timerTick:         "onTick",
	timerHop:          "hopTimeout",
	timerProbe:        "probeTimeout",
	timerRepairRetry:  "repairRetry",
	timerJoinRetry:    "joinWatchdog",
	timerNNGiveUp:     "nnFinish",
	timerDistProbe:    "sendDistProbe",
	timerDistDeadline: "finishDistSession",
	timerIssued:       "routeIssued",
}

func (k timerKind) String() string { return timerRules[k] }

// arm arms slot a to run kind k's rule after d, on rec (nil for the node's
// own slots), binding the slot's callback to fire on its first arming.
func (n *Node) arm(k timerKind, d time.Duration, a *Alarm, rec any) {
	if a.run == nil {
		a.Bind(func() { n.fire(k, rec) })
	}
	a.Arm(n.env, d)
}

// fire runs the rule of a timer of kind k that came due on rec. A crashed
// node runs none.
func (n *Node) fire(k timerKind, rec any) {
	if !n.alive {
		return
	}
	switch k {
	case timerTick:
		n.onTick()
	case timerHop:
		n.hopTimeout(rec.(*pendingHop))
	case timerProbe:
		n.probeTimeout(rec.(*probeState))
	case timerRepairRetry:
		n.repairRetry()
	case timerJoinRetry:
		n.joinWatchdog()
	case timerNNGiveUp:
		n.nnFinish(n.nn)
	case timerDistProbe:
		n.sendDistProbe(rec.(*distSession))
	case timerDistDeadline:
		n.finishDistSession(rec.(*distSession), nil)
	case timerIssued:
		n.routeIssued()
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
	if n.unsetFailed(from.ID) {
		// A node we marked faulty is alive after all: false positive.
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
	if n.active {
		n.offerCandidate(from)
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
	if s.LSCandidate != 0 && now-s.LSCandidate < n.cfg.Tls {
		return false
	}
	s.LSCandidate = now
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

// activate marks the node active, replays held messages and starts the
// periodic maintenance tick.
func (n *Node) activate() {
	n.active = true
	n.clearFailed()
	n.obs.Activated(n, n.env.Now()-n.joinBegan)
	n.lastMaintenance = n.env.Now()
	if n.tickAlarm.timer == nil {
		// The first tick, at a random offset: ticks desynchronise across nodes.
		n.arm(timerTick, time.Duration(n.env.Rand().Int63n(int64(n.cfg.TickInterval))), &n.tickAlarm, nil)
	}
	n.announceRows()
	n.releaseHeld()
}

// onTick arms the next tick and runs the periodic maintenance: heartbeats,
// right-neighbour failure suspicion, routing-table liveness probing,
// self-tuning and periodic routing-table maintenance.
func (n *Node) onTick() {
	n.arm(timerTick, n.cfg.TickInterval, &n.tickAlarm, nil)
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
