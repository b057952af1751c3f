package pastry

import (
	"time"

	"mspastry/internal/id"
	"mspastry/internal/peer"
)

const maxTrt = time.Hour

// triedSet records the next hops already attempted for one routed message.
// A message tries at most maxRouteAttempts hops, so membership is a linear
// scan over a few entries held inline; reroutes beyond the inline capacity
// (rare) spill to a heap slice. The set is a plain value — a count over the
// inline array plus the spill, no slice pointing into itself — so it lives
// inside a pendingHop, is copied by assignment and emptied by zeroing. The
// zero value is empty; a nil *triedSet is a valid empty set for reads.
type triedSet struct {
	n     int // members: the first len(buf) of them in buf, the rest in spill
	buf   [4]id.ID
	spill []id.ID
}

func (t *triedSet) add(x id.ID) {
	if t.has(x) {
		return
	}
	if t.n < len(t.buf) {
		t.buf[t.n] = x
	} else {
		t.spill = append(t.spill, x)
	}
	t.n++
}

func (t *triedSet) has(x id.ID) bool {
	if t == nil {
		return false
	}
	for _, e := range t.buf[:min(t.n, len(t.buf))] {
		if e == x {
			return true
		}
	}
	for _, e := range t.spill {
		if e == x {
			return true
		}
	}
	return false
}

// isExcluded reports whether a node must be routed around: it has been
// marked faulty, or it is temporarily excluded after a missed per-hop ack,
// or its circuit breaker is open (fast-fail: consecutive missed acks mean
// the peer is overloaded or dead, so traffic reroutes immediately instead
// of paying a retransmission timeout per message), or it was already
// tried for this particular message.
func (n *Node) isExcluded(tried *triedSet) func(id.ID) bool {
	return func(x id.ID) bool {
		return n.excluded[x] || n.isFailed(x) || n.breakerDenies(x) || tried.has(x)
	}
}

// verdict is what nextHop decides about a message for a key.
type verdict int

const (
	// forward sends the message on to the next hop nextHop returns.
	forward verdict = iota
	// deliver hands the message to this node, the key's root.
	deliver
	// hold keeps the message here: a node closer to the key exists but is
	// excluded from routing, or this node may not deliver yet.
	hold
)

// nextHop implements the route function of Figure 2: leaf set first, then
// the routing-table slot for the key's prefix, then any known node closer
// to the key that keeps the prefix invariant (routing around failures;
// emptySlot asks for passive repair of the slot).
//
// It is the one place that decides whether this node is the key's root.
// It delivers only from the leaf-set branch, only when no leaf-set member
// but those marked failed is closer to the key — excluded, tried and
// breaker-denied members count — and only while the node is active with
// neither leaf-set side empty (the paper's guard; a believed singleton has
// both empty). Every other case holds: the closer node is probably alive
// (aggressive retransmission timeouts are prone to false positives), and
// it, not this node, is the root. Outside the leaf-set range some leaf
// member is always closer. HoldOnSuspect off (an ablation) delivers where
// an excluded node would hold.
func (n *Node) nextHop(k id.ID, tried *triedSet) (next NodeRef, v verdict, emptySlot bool) {
	excl := n.isExcluded(tried)
	v = hold
	if n.ls.InRange(k) {
		if best, other := n.ls.Closest(k, excl); other {
			return best, forward, false
		}
		if _, other := n.ls.Closest(k, n.isFailed); !other {
			v = deliver
		}
	} else {
		if ref, ok := n.rt.BestForKey(k, excl); ok {
			return ref, forward, false
		}
		r := id.CommonPrefixLen(k, n.self.ID, n.cfg.B)
		if ref, ok := n.rt.AnyCloser(k, r, excl); ok {
			return ref, forward, true
		}
		found := false
		for _, m := range n.ls.Members() {
			if excl(m.ID) {
				continue
			}
			if id.CommonPrefixLen(k, m.ID, n.cfg.B) >= r && id.CloserToKey(k, m.ID, n.self.ID) {
				if !found || id.CloserToKey(k, m.ID, next.ID) {
					next, found = m, true
				}
			}
		}
		if found {
			return next, forward, true
		}
	}
	if v == hold && !n.cfg.HoldOnSuspect {
		v = deliver
	}
	if v == deliver && (!n.active || (len(n.ls.Left()) == 0) != (len(n.ls.Right()) == 0)) {
		v = hold
	}
	return n.self, v, false
}

// isFailed reports whether x is marked faulty.
func (n *Node) isFailed(x id.ID) bool {
	_, bad := n.failed[x]
	return bad
}

// routeLookup forwards, delivers or holds a lookup as nextHop decides;
// heldSince is when this node first held it (now, unless it comes out of
// the hold buffer). The application's Forward hook can consume a hop.
func (n *Node) routeLookup(lk *Lookup, heldSince time.Duration) {
	next, v, emptySlot := n.nextHop(lk.Key, nil)
	switch v {
	case deliver:
		n.receiveRootLookup(lk)
		return
	case hold:
		n.holdLookup(lk, heldSince)
		return
	}
	if n.app != nil && !n.app.Forward(lk) {
		return
	}
	if emptySlot {
		n.requestPassiveRepair(lk.Key, next)
	}
	n.sendHop(lk, nil, lk.Key, next, nil, !lk.NoAck)
}

// routeJoin advances a join request one hop towards the joiner's id. The
// joiner itself is excluded from next-hop selection: it may already appear
// in routing state (opportunistic insertion on direct contact), but the
// join must terminate at the existing node closest to the joiner's id.
// That node is where no other hop is left, so a join has no hold: where a
// lookup would be held, the join is answered here too.
func (n *Node) routeJoin(jr *JoinRequest) {
	var tried triedSet
	tried.add(jr.Joiner.ID)
	next, v, emptySlot := n.nextHop(jr.Joiner.ID, &tried)
	if v != forward {
		n.receiveRootJoin(jr)
		return
	}
	if emptySlot {
		n.requestPassiveRepair(jr.Joiner.ID, next)
	}
	n.sendHop(nil, jr, jr.Joiner.ID, next, &tried, true)
}

// sendHop transmits one overlay hop inside an Envelope. With acks in use the
// hop's bookkeeping — the message, its key and the hops it has tried (the
// caller's set, copied) — goes into a pendingHop from the node's free list,
// and transmit sends it. Unacked hops never reroute, so they keep no record.
func (n *Node) sendHop(lk *Lookup, jr *JoinRequest, key id.ID, to NodeRef, tried *triedSet, needAck bool) {
	if !needAck {
		n.nextXfer++
		n.send(to, n.hopEnvelope(n.nextXfer, false, lk, jr, to, HopForward))
		return
	}
	ph := n.takeHop()
	ph.lookup, ph.join, ph.key = lk, jr, key
	if tried != nil {
		ph.tried = *tried
	}
	n.transmit(ph, to, HopForward, n.rtoFor(to))
}

// transmit is the one way an acked hop leaves the node — first send,
// reroute, backed-off retransmission and join request alike. It records the
// destination, the send time and whether this is a retransmission (Karn's
// rule reads it), adds to to the tried set, and arms the retransmission
// timeout before the envelope goes out.
func (n *Node) transmit(ph *pendingHop, to NodeRef, cause HopCause, rto time.Duration) {
	n.nextXfer++
	ph.to, ph.sentAt, ph.retx = to, n.env.Now(), cause != HopForward
	ph.tried.add(to.ID)
	n.armHopTimer(ph, n.nextXfer, rto)
	n.send(to, n.hopEnvelope(n.nextXfer, true, ph.lookup, ph.join, to, cause))
}

// hopEnvelope builds transmission xfer's Envelope, the node's only one, and
// reports a lookup's hop to the trace observer; the caller sends it. Sending
// here would put one more frame on the path of every forwarded hop, which on
// a live node runs on the transport's loop goroutines: their stacks sit just
// under a growth step, and a frame more doubles many of them.
//
// A lookup's first hop from this node goes out in the lookup's spare
// envelope when it has one (see spareEnvelope); every other hop, and every
// join hop, in a new one.
func (n *Node) hopEnvelope(xfer uint64, needAck bool, lk *Lookup, jr *JoinRequest, to NodeRef, cause HopCause) *Envelope {
	env := spareEnvelope(lk)
	*env = Envelope{
		Xfer:    xfer,
		NeedAck: needAck,
		Retx:    cause != HopForward,
		From:    n.self,
		Lookup:  lk,
		Join:    jr,
		TrtHint: n.trtLocal,
	}
	if lk != nil && n.tobs != nil {
		n.tobs.LookupHop(n, lk, to, cause)
	}
	return env
}

// spareEnvelope takes lk's spare envelope — the received one whose ack is
// built, or the one Node.Lookup made beside lk — if it still carries lk
// itself, and a new envelope otherwise. The spare is taken once: nothing on
// this node writes the envelope again after its one send. A value copy of a
// Lookup shares the pointer but not the identity, so it gets a new envelope
// and leaves its original's alone.
func spareEnvelope(lk *Lookup) *Envelope {
	if lk == nil {
		return new(Envelope)
	}
	env := lk.spareEnv
	lk.spareEnv = nil
	if env == nil || env.Lookup != lk {
		return new(Envelope)
	}
	return env
}

// takeHop returns an empty hop record: a parked one when the free list has
// any, a new one otherwise. Its timeout's alarm — the callback bound on
// first arming and the handle, dead once parked — survives every park, so
// arming its timer again allocates nothing when the Env re-arms handles.
func (n *Node) takeHop() *pendingHop {
	if last := len(n.freeHops) - 1; last >= 0 {
		ph := n.freeHops[last]
		n.freeHops = n.freeHops[:last]
		return ph
	}
	return new(pendingHop)
}

// parkHop ends ph's hop: it cancels the record's timer (a no-op on the one
// that is running), empties the record and puts it on the free list. The
// caller has taken ph out of n.pending, so with the timer dead — Timer's
// contract: a cancelled or running callback cannot fire again — no one else
// can reach the record. Callers park before they hand the lookup or join
// on: what runs next may send a hop of its own and take this very record,
// and a parked record must pin nothing (delivery.Fire's discipline in
// netmodel).
func (n *Node) parkHop(ph *pendingHop) {
	ph.Stop()
	*ph = pendingHop{Alarm: ph.Alarm}
	if len(n.freeHops) < n.maxFree() {
		n.freeHops = append(n.freeHops, ph)
	}
}

// maxFree bounds each of the node's two free lists at a leaf set's worth
// of records; one parked beyond it is left to the collector. A node has a
// handful of hops and probes in flight except in bursts, and the burst
// that recurs is a failure's announcement wave, one probe per leaf-set
// member. A joining node's is larger — it probes its leaf set and every
// candidate the replies name at once, 145 probes on one node of a 300-node
// overlay — and happens once: kept for good, those records are live heap
// that buys nothing (unbounded lists read 4 to 8 MiB more peak heap on
// both simulated benchmark workloads for 0.2 allocations per node-second).
func (n *Node) maxFree() int { return n.cfg.L }

// armHopTimer records ph as the pending hop of transmission xfer and arms
// its retransmission timeout. A hop has one live timer at a time — it is
// re-armed only from its own timeout — so the rule can read the current
// xfer from ph.
func (n *Node) armHopTimer(ph *pendingHop, xfer uint64, rto time.Duration) {
	n.pending[xfer] = ph
	ph.xfer = xfer
	n.arm(timerHop, rto, &ph.Alarm, ph)
}

// rtoFor computes the per-hop retransmission timeout for a destination,
// seeded from the routing table's measured distance when no ack samples
// exist yet, and clamped to [MinRTO, MaxRTO].
func (n *Node) rtoFor(to NodeRef) time.Duration {
	var est *peer.RTT
	if rec := n.peers.Lookup(to.ID); rec != nil && rec.Get(n.slotRTT) != nil {
		est = &rec.State.RTT
	}
	fallback := 500 * time.Millisecond
	if rtt, ok := n.rt.RTT(to.ID); ok {
		fallback = 2 * rtt
	}
	return min(max(est.RTO(fallback), n.cfg.MinRTO), n.cfg.MaxRTO)
}

// hopTimeout fires when a per-hop ack was not received in time: the next
// hop is temporarily excluded from routing, probed (it is only marked
// faulty if the probe times out — aggressive retransmission must not cause
// false positives), and the message is rerouted to an alternative node.
func (n *Node) hopTimeout(ph *pendingHop) {
	if n.pending[ph.xfer] != ph {
		return
	}
	delete(n.pending, ph.xfer)
	n.counters.Retransmits++
	n.excluded[ph.to.ID] = true
	n.breakerFailure(ph.to)
	n.suspect(ph.to)
	ph.attempts++
	if ph.attempts >= maxRouteAttempts {
		lk := ph.lookup
		n.parkHop(ph)
		if lk != nil {
			n.obs.LookupDropped(n, lk, DropRetries)
		}
		return
	}
	n.reroute(ph)
}

// reroute re-sends a timed-out hop to an alternative next hop, marking the
// retransmission for traffic accounting. Where the verdict is hold
// (typically the key's root is the suspect whose ack was lost), the hop is
// retransmitted to the same node with exponential backoff rather than
// mis-delivered locally — the suspect's probe resolves the situation
// either way (reply clears the exclusion; timeout removes the node). A
// joiner's own join request, which no node is closer to than the joiner,
// goes to receiveRootJoin instead: on a joining node it is dropped there,
// and the join watchdog restarts the join.
func (n *Node) reroute(ph *pendingHop) {
	next, v, emptySlot := n.nextHop(ph.key, &ph.tried)
	switch {
	case v == forward:
		if emptySlot {
			n.requestPassiveRepair(ph.key, next)
		}
		n.transmit(ph, next, HopReroute, n.rtoFor(next))
	case v == hold && (ph.lookup != nil || ph.key != n.self.ID):
		n.retransmitSame(ph)
	default:
		lk, jr := ph.lookup, ph.join
		n.parkHop(ph)
		if lk != nil {
			n.receiveRootLookup(lk)
		} else {
			n.receiveRootJoin(jr)
		}
	}
}

// retransmitSame re-sends the hop to its previous destination with an
// exponentially backed-off timeout, charged against the destination's
// retry budget: once the budget runs dry the lookup is parked in the
// hold buffer instead (re-routed each tick and when the suspect's probe
// resolves), so a struggling peer sees a bounded retransmission rate
// rather than an exponential storm of backoff copies from every held
// message.
func (n *Node) retransmitSame(ph *pendingHop) {
	if !n.retryAllowed(ph.to) {
		lk := ph.lookup
		n.parkHop(ph)
		if lk != nil {
			n.holdLookup(lk, n.env.Now())
		}
		return
	}
	rto := n.rtoFor(ph.to) << uint(ph.attempts)
	n.transmit(ph, ph.to, HopBackoff, min(max(rto, n.cfg.MinRTO), n.cfg.MaxRTO))
}

// handleEnvelope processes one received overlay hop: acknowledge, then
// route the payload onwards. The ack is the one inline in a received
// envelope when it has one; once it is sent, the envelope may carry the
// lookup on (spareEnvelope).
func (n *Node) handleEnvelope(env *Envelope) {
	if env.NeedAck {
		ack := takeSpare(&env.spareAck)
		*ack = Ack{Xfer: env.Xfer, From: n.self, TrtHint: n.trtLocal}
		n.send(env.From, ack)
	}
	switch {
	case env.Lookup != nil:
		lk := env.Lookup
		lk.Hops++
		if lk.Hops > n.cfg.lookupTTL {
			n.obs.LookupDropped(n, lk, DropTTL)
			return
		}
		n.routeLookup(lk, n.env.Now())
	case env.Join != nil:
		jr := env.Join
		jr.Hops++
		// Joins use their own generous hop bound: lookupTTL is an
		// application-facing knob and must not break the join protocol.
		const joinTTL = 128
		if jr.Hops > joinTTL {
			return
		}
		// Nodes along the join route contribute the routing-table rows
		// that match the joiner's prefix, plus themselves.
		shared := id.CommonPrefixLen(n.self.ID, jr.Joiner.ID, n.cfg.B)
		jr.Rows = append(jr.Rows, n.rt.RowsUpTo(shared)...)
		jr.Rows = append(jr.Rows, n.self)
		n.routeJoin(jr)
	}
}

// handleAck completes a per-hop transfer and feeds the RTT sample to the
// estimator (first transmissions only — Karn's rule).
func (n *Node) handleAck(ack *Ack) {
	ph, ok := n.pending[ack.Xfer]
	if !ok {
		return
	}
	delete(n.pending, ack.Xfer)
	to, sentAt, retx := ph.to, ph.sentAt, ph.retx
	n.parkHop(ph)
	n.breakerSuccess(to.ID, sentAt)
	if !retx {
		rtt := n.env.Now() - sentAt
		n.rttOf(n.peers.Obtain(to.ID, to.Addr, n.env.Now())).Observe(rtt)
		if n.sobs != nil {
			n.sobs.AckRTT(n, to, rtt)
		}
	}
}

// receiveRootLookup is Figure 2's receive-root for lookups: it delivers a
// lookup nextHop found this node the root of.
func (n *Node) receiveRootLookup(lk *Lookup) {
	n.obs.Delivered(n, lk)
	if n.app != nil {
		n.app.Deliver(lk)
	}
}

// IsRootFor reports whether nextHop's verdict for key is deliver right
// now. Exported for the simulator's adversary model: a malicious node
// that actually owns the key delivers honestly — dropping root-owned
// traffic is a replication problem, not a routing problem.
func (n *Node) IsRootFor(key id.ID) bool {
	_, v, _ := n.nextHop(key, nil)
	return v == deliver
}

// FirstHops lists the peers a lookup could leave this node through: the
// leaf set's members, then the routing table's entries, each once, without
// this node, the peers in skip and the peers routing excludes right now.
func (n *Node) FirstHops(skip map[id.ID]bool) []NodeRef {
	excl := n.isExcluded(nil)
	seen := make(map[id.ID]bool)
	var out []NodeRef
	for _, r := range append(n.ls.Members(), n.rt.Entries()...) {
		if r.ID == n.self.ID || seen[r.ID] || skip[r.ID] || excl(r.ID) {
			continue
		}
		seen[r.ID] = true
		out = append(out, r)
	}
	return out
}

// receiveRootJoin answers a join request that reached the joiner's root.
func (n *Node) receiveRootJoin(jr *JoinRequest) {
	if !n.active {
		// The paper buffers and replays. This node drops the request
		// instead, and the joiner's watchdog restarts the join
		// joinRetryAfter after the request went out: a joiner whose
		// request ends at another joiner stalls that long.
		return
	}
	rows := append(append([]NodeRef(nil), jr.Rows...), n.self)
	shared := id.CommonPrefixLen(n.self.ID, jr.Joiner.ID, n.cfg.B)
	rows = append(rows, n.rt.RowsUpTo(shared)...)
	n.send(jr.Joiner, &JoinReply{Rows: rows, Leaves: n.ls.Members()})
}

// requestPassiveRepair asks the chosen next hop for an entry to fill the
// slot routing key found empty or excluded: once per Trt, the re-probe
// period of an occupied slot, not once per lookup through the slot.
func (n *Node) requestPassiveRepair(k id.ID, nextHop NodeRef) {
	row := id.CommonPrefixLen(k, n.self.ID, n.cfg.B)
	if row >= n.rt.NumRows() {
		return
	}
	col := k.Digit(row, n.cfg.B)
	if !n.rt.askRepair(row, col, n.env.Now(), n.trtCurrent) {
		return
	}
	n.counters.SentRepairRequests++
	n.send(nextHop, &RepairRequest{From: n.self, Row: row, Col: col})
}

// handleRepairRequest returns candidates for the requester's empty slot:
// nodes (possibly ourselves) whose identifiers match the requester's
// prefix of length Row and have digit Col at position Row.
func (n *Node) handleRepairRequest(req *RepairRequest) {
	matches := func(x id.ID) bool {
		return id.CommonPrefixLen(x, req.From.ID, n.cfg.B) >= req.Row &&
			x.Digit(req.Row, n.cfg.B) == req.Col
	}
	// The first four matches travel: ourselves, then the table in row-major
	// order, then the leaf set.
	var out []NodeRef
	collect := func(e NodeRef) {
		if len(out) < 4 && matches(e.ID) {
			out = append(out, e)
		}
	}
	collect(n.self)
	n.rt.each(collect)
	for _, e := range n.ls.Members() {
		collect(e)
	}
	if len(out) == 0 {
		return
	}
	n.send(req.From, &RepairReply{From: n.self, Row: req.Row, Col: req.Col, Entries: out})
}

// handleRepairReply considers the candidates a passive repair returned for
// an empty slot.
func (n *Node) handleRepairReply(rep *RepairReply) { n.handleRowEntries(rep.Entries, true) }
