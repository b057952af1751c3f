package pastry

import (
	"slices"
	"time"

	"mspastry/internal/id"
)

// probeLeaf starts (or upgrades to) a leaf-set probe of ref, per Figure 2's
// probei.
func (n *Node) probeLeaf(ref NodeRef) { n.probe(ref, true, false) }

// probe starts a probe of ref — a leaf-set probe (isLeaf) or a routing-table
// liveness ping — unless ref is this node or marked faulty. announce marks
// first-hand failure suspicion (its timeout is announced to the leaf set).
// A leaf probe of a node already under probe upgrades that probe instead;
// a ping does nothing. A leaf probe of a node outside the leaf set is
// marked candidate and listed in n.candidates; one that gave up its place
// on a timeout (probeTimeout) takes it again when it is offered again.
func (n *Node) probe(ref NodeRef, isLeaf, announce bool) {
	if ref.ID == n.self.ID || ref.IsZero() || n.isFailed(ref.ID) {
		return
	}
	ps, ok := n.probing[ref.ID]
	sent := !ok
	switch {
	case !ok:
		ps = n.startProbe(probeState{ref: ref, isLeaf: isLeaf, announce: announce})
	case isLeaf:
		if announce {
			ps.announce = true
		}
		if !ps.isLeaf {
			// Upgrade an in-flight liveness ping to a leaf probe so the
			// reply carries leaf-set state.
			ps.isLeaf = true
			n.sendProbeMsg(ps)
			sent = true
		}
	}
	if isLeaf && !ps.candidate && !n.ls.Contains(ref.ID) {
		ps.candidate = true
		if n.candidates == nil {
			n.candidates = make([]id.ID, 0, n.cfg.L)
		}
		n.candidates = append(n.candidates, n.self.ID.Clockwise(ref.ID))
		if sent {
			n.counters.SentCandidateProbes++
		}
	}
}

// startProbe starts the probe p describes (its ref and kind): it fills a
// record with p — a parked record when the free list has any, a new one
// otherwise; the timeout's alarm survives every park, as a hop record's
// does (takeHop) — enters it in n.probing, sends the probe, arms its
// timeout and returns the record.
func (n *Node) startProbe(p probeState) *probeState {
	var ps *probeState
	if last := len(n.freeProbes) - 1; last >= 0 {
		ps = n.freeProbes[last]
		n.freeProbes = n.freeProbes[:last]
	} else {
		ps = new(probeState)
	}
	p.Alarm = ps.Alarm
	*ps = p
	n.probing[p.ref.ID] = ps
	n.sendProbeMsg(ps)
	n.arm(timerProbe, n.cfg.To, &ps.Alarm, ps)
	return ps
}

// parkProbe ends the probe: it takes ps out of n.probing (and
// n.candidates), cancels its timer (a no-op on the one that is running),
// empties the record and puts it on the free list (up to maxFree).
func (n *Node) parkProbe(ps *probeState) {
	delete(n.probing, ps.ref.ID)
	if ps.candidate {
		n.unlistCandidate(ps)
	}
	ps.Stop()
	*ps = probeState{Alarm: ps.Alarm}
	if len(n.freeProbes) < n.maxFree() {
		n.freeProbes = append(n.freeProbes, ps)
	}
}

// unlistCandidate takes ps's target off n.candidates: its probe ended, or
// the target became a member (admit).
func (n *Node) unlistCandidate(ps *probeState) {
	ps.candidate = false
	last := len(n.candidates) - 1
	n.candidates[slices.Index(n.candidates, n.self.ID.Clockwise(ps.ref.ID))] = n.candidates[last]
	n.candidates = n.candidates[:last]
}

// admit inserts ref into the leaf set. A candidate it inserts no longer
// holds a place under probe: it is a member now.
func (n *Node) admit(ref NodeRef) {
	if !n.ls.Add(ref) {
		return
	}
	if ps := n.probing[ref.ID]; ps != nil && ps.candidate {
		n.unlistCandidate(ps)
	}
}

// sendProbeMsg sends ps's probe, built with the reply its target will owe
// inline (lsExchange, rtExchange).
func (n *Node) sendProbeMsg(ps *probeState) {
	if ps.isLeaf {
		p := newLSProbe()
		p.From, p.Leaves, p.Failed = n.self, n.ls.Members(), n.failedList()
		p.NeedNear, p.TrtHint = !n.ls.Complete(), n.trtLocal
		n.send(ps.ref, p)
		return
	}
	if ps.reconnect {
		n.counters.SentReconnectProbes++
	} else {
		n.counters.SentRTProbes++
	}
	p := newRTProbe()
	p.From, p.TrtHint = n.self, n.trtLocal
	n.send(ps.ref, p)
}

// failedList snapshots the failure records in identifier order. The order
// matters: receivers process the list sequentially and each confirm-probe
// mutates their leaf set, so a map-order list would make the repair
// cascade — and every byte count derived from it — vary between otherwise
// identical runs. It returns nil, the common case, when nothing has
// failed. Like LeafSet.Members, the list is a shared snapshot, built once
// per change to n.failed: callers and the messages that carry it must not
// modify it, and its capacity is its length, so an append copies.
func (n *Node) failedList() []NodeRef {
	if n.failedSnap != nil || len(n.failed) == 0 {
		return n.failedSnap
	}
	out := make([]NodeRef, 0, len(n.failed))
	for _, ref := range n.failed {
		out = append(out, ref)
	}
	slices.SortFunc(out, func(a, b NodeRef) int { return a.ID.Cmp(b.ID) })
	n.failedSnap = out
	return out
}

// setFailed records ref as faulty.
func (n *Node) setFailed(ref NodeRef) {
	n.failed[ref.ID] = ref
	n.failedSnap = nil
}

// unsetFailed lifts x's failure record and reports whether it had one.
func (n *Node) unsetFailed(x id.ID) bool {
	if _, ok := n.failed[x]; !ok {
		return false
	}
	delete(n.failed, x)
	n.failedSnap = nil
	return true
}

// clearFailed drops every failure record.
func (n *Node) clearFailed() {
	clear(n.failed)
	n.failedSnap = nil
}

// probeTimeout implements PROBE-TIMEOUT: retry a few times with a large
// timeout (minimising false positives), then mark the node faulty.
func (n *Node) probeTimeout(ps *probeState) {
	cur, ok := n.probing[ps.ref.ID]
	if !ok || cur != ps {
		return
	}
	if ps.retries < maxProbeRetries {
		ps.retries++
		if ps.candidate {
			// A candidate that missed its first reply gives its place to
			// the next one now, not after the verdict: a dead candidate
			// delays leaf-set repair by one To, not by every retry.
			n.unlistCandidate(ps)
			if len(n.deferred) > 0 {
				n.recheckDeferred()
			}
		}
		// Probe retries draw on the peer's retry budget: under overload a
		// storm of simultaneous suspicions would otherwise multiply every
		// timeout into maxProbeRetries extra packets. A suppressed resend
		// keeps the timer machinery running, so the verdict arrives on the
		// same schedule either way — the peer just is not re-pinged.
		if n.retryAllowed(ps.ref) {
			n.sendProbeMsg(ps)
		}
		n.arm(timerProbe, n.cfg.To, &ps.Alarm, ps)
		return
	}
	if ps.reconnect {
		// Still unreachable: restore the failure record without
		// re-counting the failure (it was counted when first marked
		// faulty) and without an announcement.
		n.setFailed(ps.ref)
		n.doneProbing(ps.ref.ID)
		return
	}
	n.markFaulty(ps.ref, ps.announce && n.ls.Contains(ps.ref.ID) || ps.rightGone)
	n.doneProbing(ps.ref.ID)
}

// markFaulty removes a node from all routing state, records the failure for
// the failure-rate estimator, and — when announce is set — announces the
// failure to the rest of the leaf set (whose probe replies in turn supply
// repair candidates). Every member hears the announcement, one under leaf
// probe already included. A probe's timeout announces when first-hand
// suspicion started it and the node is still a member, or when it was the
// right neighbour a peer's Failed list removed (processLeafInfo): either
// way this node is the one failure detection relies on.
func (n *Node) markFaulty(ref NodeRef, announce bool) {
	n.ls.Remove(ref.ID)
	n.rt.Remove(ref.ID)
	n.setFailed(ref)
	n.rememberFailed(ref)
	delete(n.excluded, ref.ID)
	n.clearSlot(ref.ID, n.slotHint)
	// The reconnect cache owns the peer now; breaker and budget state
	// would only shadow it.
	n.dropBreaker(ref.ID)
	n.recordFailure(n.env.Now())
	if announce && n.active {
		if n.sobs != nil {
			n.sobs.LeafSetRepair(n, "announce")
		}
		for _, m := range n.ls.Members() {
			if ps := n.probing[m.ID]; ps != nil && ps.isLeaf {
				// A leaf probe already in flight went out before the
				// failure: send it again, carrying the new Failed list.
				n.sendProbeMsg(ps)
				continue
			}
			n.probeLeaf(m)
		}
	}
}

// doneProbing implements Figure 2's done-probing: when the last outstanding
// probe completes, either become active (leaf set complete) or continue
// leaf-set repair.
func (n *Node) doneProbing(x id.ID) {
	ps, ok := n.probing[x]
	if !ok {
		// A reply for a probe that is not outstanding — duplicated or
		// stale — is not a completion event. Without this guard, each
		// such reply re-runs the repair logic below and can launch a
		// fresh probe wave; under network-level message duplication the
		// waves multiply into an exponential probe storm.
		return
	}
	n.parkProbe(ps)
	if len(n.deferred) > 0 {
		n.recheckDeferred()
	}
	if len(n.probing) > 0 {
		return
	}
	if n.ls.Complete() {
		if !n.active {
			n.activate()
		} else {
			n.clearFailed()
			n.releaseHeld()
		}
		return
	}
	n.repairLeafSet()
}

// repairLeafSet continues leaf-set repair: probe outwards through the
// farthest member on each deficient side; if a side is completely empty,
// fall back to the generalised repair via the routing table.
func (n *Node) repairLeafSet() {
	half := n.ls.Half()
	progressed := false
	if len(n.ls.Left()) < half {
		if lm, ok := n.ls.Leftmost(); ok {
			progressed = n.repairProbe(lm, "repair-left") || progressed
		} else if cand, ok := n.closestKnown(true); ok {
			progressed = n.repairProbe(cand, "repair-left-empty") || progressed
		}
	}
	if len(n.ls.Right()) < half {
		if rm, ok := n.ls.Rightmost(); ok {
			progressed = n.repairProbe(rm, "repair-right") || progressed
		} else if cand, ok := n.closestKnown(false); ok {
			progressed = n.repairProbe(cand, "repair-right-empty") || progressed
		}
	}
	if progressed || n.repairArmed {
		return
	}
	// Nothing left to probe. If the node is still joining, its seed may
	// have died mid-join; retry after a backoff through the seed source.
	if !n.active {
		n.scheduleJoinRetry()
	}
}

// repairProbe launches a repair probe unless the same target was probed
// less than one probe timeout ago. Without this pacing a stuck repair —
// the target's reply supplies no acceptable new candidate, so the leaf
// set stays deficient — re-probes the same farthest member the moment
// each reply arrives, a self-sustaining loop at reply-RTT rate that
// floods the network (observed under churn plus message duplication).
// Paced-out probes arm a single retry timer that re-enters repair once
// the pacing window has passed, so a genuinely stuck node keeps trying
// at a bounded one-probe-per-To rate until new information arrives.
func (n *Node) repairProbe(ref NodeRef, cause string) bool {
	now := n.env.Now()
	s := n.suppressOf(n.peers.Obtain(ref.ID, ref.Addr, now))
	if s.LastRepair != 0 && now-s.LastRepair < n.cfg.To {
		if !n.repairArmed {
			n.repairArmed = true
			n.arm(timerRepairRetry, n.cfg.To-(now-s.LastRepair), &n.repairAlarm, nil)
		}
		return false
	}
	s.LastRepair = now
	if n.sobs != nil {
		n.sobs.LeafSetRepair(n, cause)
	}
	n.probeLeaf(ref)
	return true
}

// repairRetry re-enters a paced-out repair once its pacing window has
// passed, unless probes in flight or a complete leaf set made it moot.
func (n *Node) repairRetry() {
	n.repairArmed = false
	if len(n.probing) == 0 && !n.ls.Complete() {
		n.repairLeafSet()
	}
}

// closestKnown finds the nearest known node on the requested side among
// routing-table entries and leaf members — the generalised repair that
// recovers even when one side of the leaf set is completely empty.
func (n *Node) closestKnown(leftSide bool) (NodeRef, bool) {
	var best NodeRef
	found := false
	consider := func(ref NodeRef) {
		if ref.ID == n.self.ID {
			return
		}
		if _, bad := n.failed[ref.ID]; bad {
			return
		}
		if !found {
			best, found = ref, true
			return
		}
		var d, bd id.ID
		if leftSide {
			d = ref.ID.Clockwise(n.self.ID)
			bd = best.ID.Clockwise(n.self.ID)
		} else {
			d = n.self.ID.Clockwise(ref.ID)
			bd = n.self.ID.Clockwise(best.ID)
		}
		if d.Cmp(bd) < 0 {
			best = ref
		}
	}
	n.rt.each(consider)
	for _, e := range n.ls.Members() {
		consider(e)
	}
	return best, found
}

// handleLSProbe implements RECEIVE(LS-PROBE) from Figure 2. The reply is
// the one the probe carries inline when it has one.
func (n *Node) handleLSProbe(p *LSProbe) {
	n.processLeafInfo(p.From, p.Leaves, nil, p.Failed)
	reply := takeSpare(&p.spareReply)
	*reply = LSProbeReply{
		From:    n.self,
		Leaves:  n.ls.Members(),
		Failed:  n.failedList(),
		TrtHint: n.trtLocal,
	}
	// Only repairing nodes get the nearest-known candidate list (the
	// generalised repair of the paper): sending it on every probe would
	// fan out into needless candidate probing.
	if p.NeedNear {
		reply.Near = n.nearestKnown(p.From.ID, n.cfg.L+1)
	}
	n.send(p.From, reply)
}

// handleLSProbeReply implements RECEIVE(LS-PROBE-REPLY). A reply proves
// the peer is alive — the exclusion lifts — but deliberately does not
// touch its circuit breaker: probes ride the liveness lane, so an
// overloaded peer answers them while still shedding routed traffic (see
// breaker.go).
func (n *Node) handleLSProbeReply(p *LSProbeReply) {
	delete(n.excluded, p.From.ID)
	n.processLeafInfo(p.From, p.Leaves, p.Near, p.Failed)
	if ps := n.probing[p.From.ID]; ps != nil && ps.candidate {
		n.counters.UnusedCandidateReplies++
	}
	n.doneProbing(p.From.ID)
}

// processLeafInfo is the common body of LS-PROBE and LS-PROBE-REPLY
// handling (Figure 2): insert the direct sender; re-probe members the
// sender claims have failed (to recover from false positives); remove them
// meanwhile; and probe any new leaf-set candidates that can still enter —
// the sender's leaves, then the nearest-known list a repair reply adds —
// before inserting them.
func (n *Node) processLeafInfo(from NodeRef, leaves, near, failed []NodeRef) {
	n.unsetFailed(from.ID)
	n.admit(from)
	n.rt.Add(from)
	// Nodes the sender believes faulty: if they are in our leaf set, probe
	// them to confirm, and remove them until they prove alive. The right
	// neighbour's probe announces its timeout: this node watched its
	// heartbeats, and no one else will announce what it no longer sees.
	for _, f := range failed {
		if f.ID == n.self.ID || !n.ls.Contains(f.ID) {
			continue
		}
		right, _ := n.ls.RightNeighbour()
		n.ls.Remove(f.ID)
		n.probeLeaf(f)
		if ps := n.probing[f.ID]; ps != nil && right.ID == f.ID {
			ps.rightGone = true
		}
	}
	// Candidate members from the sender's leaf set: probe before insertion
	// (a node never enters the leaf set without direct contact).
	for _, cand := range leaves {
		n.offerCandidate(cand)
	}
	for _, cand := range near {
		n.offerCandidate(cand)
	}
}

// offerCandidate probes cand if it can enter the leaf set, and defers it
// if it waits for a place (probeCandidate).
func (n *Node) offerCandidate(cand NodeRef) {
	if !n.probeCandidate(cand) || slices.Contains(n.deferred, cand) ||
		len(n.deferred) == n.cfg.L {
		return
	}
	if n.deferred == nil {
		n.deferred = make([]NodeRef, 0, n.cfg.L)
	}
	n.deferred = append(n.deferred, cand)
}

// probeCandidate probes a node the sender vouched for, or a direct sender,
// if it is not known dead, not yet a member, and can still enter the leaf
// set once it answers (canEnter). It reports whether cand waits: it is not
// under probe, and only the places candidates under probe hold keep it out.
func (n *Node) probeCandidate(cand NodeRef) bool {
	if cand.ID == n.self.ID || n.isFailed(cand.ID) || n.ls.Contains(cand.ID) {
		return false
	}
	enter, wait := n.canEnter(cand.ID)
	if enter && n.markCandidateProbe(cand) {
		n.probeLeaf(cand)
	}
	return wait && n.probing[cand.ID] == nil
}

// recheckDeferred weighs the deferred candidates again once a probe
// resolved: a place a candidate held goes to the next one, and a candidate
// the members alone now keep out is dropped.
func (n *Node) recheckDeferred() {
	kept := n.deferred[:0]
	for _, cand := range n.deferred {
		if n.probeCandidate(cand) {
			kept = append(kept, cand)
		}
	}
	clear(n.deferred[len(kept):])
	n.deferred = kept
}

// canEnter reports whether x, a node outside the leaf set, can still
// enter it once it answers a probe, and otherwise whether it waits for a
// place. x must rank below half on some side, where its rank counts the
// members closer to this node than x and the candidates under probe closer
// than x, whose replies would fill those places first. The rule is the
// same on a full side and a short one: a side short by k places admits k
// candidates beyond its farthest member at a time. x waits when only the
// candidates keep it out.
func (n *Node) canEnter(x id.ID) (enter, wait bool) {
	half := n.ls.Half()
	for _, left := range [2]bool{true, false} {
		members, held := n.rankOn(x, left)
		if members+held < half {
			return true, false
		}
		wait = wait || members < half
	}
	return false, wait
}

// rankOn counts, on one side of the leaf set (left or right), the members
// closer to this node than x and — up to the side's capacity l/2 — the
// candidates under probe closer than x. Most candidates lie beyond the
// farthest member of a full side, and cost one comparison.
func (n *Node) rankOn(x id.ID, left bool) (members, held int) {
	side := n.ls.Right()
	if left {
		side = n.ls.Left()
	}
	half := n.ls.Half()
	d := n.sideDist(x, left)
	members = len(side)
	if members > 0 && n.sideDist(side[members-1].ID, left).Cmp(d) >= 0 {
		// x lies within the side: count the members closer than it.
		members = 0
		for n.sideDist(side[members].ID, left).Cmp(d) < 0 {
			members++
		}
	}
	// The candidates are listed by clockwise distance, so on the left a
	// closer one is one farther clockwise.
	cw, closer := n.self.ID.Clockwise(x), -1
	if left {
		closer = 1
	}
	for _, c := range n.candidates {
		if members+held == half {
			break
		}
		if c.Cmp(cw) == closer {
			held++
		}
	}
	return members, held
}

// sideDist is x's distance from this node on the left side
// (counter-clockwise) or the right side (clockwise).
func (n *Node) sideDist(x id.ID, left bool) id.ID {
	if left {
		return x.Clockwise(n.self.ID)
	}
	return n.self.ID.Clockwise(x)
}

// nearestKnown returns up to k known nodes closest (in ring distance) to
// the target identifier, drawn from the routing table and leaf set. It
// implements the reply side of generalised leaf-set repair. Candidates are
// gathered in the node's scratch slices — table entries in row-major order,
// then leaf members the table lacks; neither structure holds the local
// node or an id twice — and ranked once each; only the k chosen, which
// travel in the reply, are copied out.
func (n *Node) nearestKnown(target id.ID, k int) []NodeRef {
	all := n.refScratch[:0]
	n.rt.each(func(e NodeRef) {
		if e.ID != target {
			all = append(all, e)
		}
	})
	for _, e := range n.ls.Members() {
		if e.ID != target && !n.rt.Contains(e.ID) {
			all = append(all, e)
		}
	}
	n.refScratch = all[:0]
	ranks := n.rankScratch[:0]
	for i, e := range all {
		ranks = append(ranks, rankOf(target, e.ID, i))
	}
	n.rankScratch = ranks[:0]
	slices.SortFunc(ranks, func(a, b rankKey) int {
		if c := a.dist.Cmp(b.dist); c != 0 || a.ccw == b.ccw {
			return c
		}
		if a.ccw {
			return 1
		}
		return -1
	})
	near := make([]NodeRef, min(k, len(ranks)))
	for j := range near {
		near[j] = all[ranks[j].i]
	}
	return near
}

// rankKey is candidate i's rank by id.CloserToKey: its ring distance to the
// target, and for two candidates that distance away on either side, the
// clockwise one (ccw false) first. Distinct candidates never share a rank.
type rankKey struct {
	dist id.ID
	ccw  bool
	i    int32
}

func rankOf(target, x id.ID, i int) rankKey {
	cw, ccw := target.Clockwise(x), x.Clockwise(target)
	if cw.Cmp(ccw) <= 0 {
		return rankKey{dist: cw, i: int32(i)}
	}
	return rankKey{dist: ccw, ccw: true, i: int32(i)}
}

// handleRTProbe answers a routing-table liveness probe, in the reply the
// probe carries inline when it has one.
func (n *Node) handleRTProbe(p *RTProbe) {
	reply := takeSpare(&p.spareReply)
	*reply = RTProbeReply{From: n.self, TrtHint: n.trtLocal}
	n.send(p.From, reply)
}

// handleRTProbeReply completes a liveness probe. Like leaf-set probe
// replies, it clears the exclusion but not the circuit breaker: liveness
// and serviceability are separate questions under overload.
func (n *Node) handleRTProbeReply(p *RTProbeReply) {
	delete(n.excluded, p.From.ID)
	now := n.env.Now()
	n.peers.Obtain(p.From.ID, p.From.Addr, now).LastLiveness = now
	n.doneProbing(p.From.ID)
}

// suspect triggers failure detection for a node (SUSPECT-FAULTY in the
// paper): leaf-set members get a leaf probe; routing-table entries a ping.
func (n *Node) suspect(ref NodeRef) {
	isLeaf := n.ls.Contains(ref.ID)
	n.probe(ref, isLeaf, isLeaf)
}

// sendHeartbeats sends the periodic liveness heartbeat. With structured
// heartbeats (the paper's optimisation) only the left ring neighbour is
// heartbeated, making leaf-set maintenance cost independent of l; the
// all-pairs mode is the ablation baseline. Any traffic already sent to the
// target within Tls suppresses the heartbeat.
func (n *Node) sendHeartbeats(now time.Duration) {
	targets := n.heartbeatTargets()
	for _, t := range targets {
		rec := n.peers.Obtain(t.ID, t.Addr, now)
		if now-rec.LastHeartbeat < n.cfg.Tls {
			continue
		}
		if now-rec.LastSent < n.cfg.Tls {
			n.counters.SuppressedProbes++
			rec.LastHeartbeat = rec.LastSent
			continue
		}
		rec.LastHeartbeat = now
		n.counters.SentHeartbeats++
		n.send(t, &Heartbeat{From: n.self, TrtHint: n.trtLocal})
	}
}

// handleHeartbeat is RECEIVE(HEARTBEAT): the contact Receive notes before
// dispatch is all a heartbeat does.
func (n *Node) handleHeartbeat(*Heartbeat) {}

func (n *Node) heartbeatTargets() []NodeRef {
	if n.cfg.StructuredHeartbeats {
		if left, ok := n.ls.LeftNeighbour(); ok {
			return []NodeRef{left}
		}
		return nil
	}
	return n.ls.Members()
}

// checkRightNeighbour suspects the right neighbour when its heartbeat is
// overdue (structured mode), or any member in the all-pairs ablation.
func (n *Node) checkRightNeighbour(now time.Duration) {
	deadline := n.cfg.Tls + n.cfg.To
	if n.cfg.StructuredHeartbeats {
		if right, ok := n.ls.RightNeighbour(); ok {
			if n.silentFor(right.ID, now) > deadline {
				n.suspect(right)
			}
		}
		return
	}
	for _, m := range n.ls.Members() {
		if n.silentFor(m.ID, now) > deadline {
			n.suspect(m)
		}
	}
}

// silentFor returns how long a peer has been silent, counting from the
// moment we first knew it if it never spoke.
func (n *Node) silentFor(x id.ID, now time.Duration) time.Duration {
	rec := n.peers.Lookup(x)
	if rec == nil || rec.LastRecv == 0 {
		// Never heard directly: leaf members always contacted us at least
		// once (insertion discipline), so this is unreachable in practice;
		// treat as fresh to avoid spurious suspicion.
		n.peers.Obtain(x, "", now).LastRecv = now
		return 0
	}
	return now - rec.LastRecv
}

// scanRoutingTable sends liveness probes to routing state whose last probe
// (or any traffic received from them) is older than the current probing
// period Trt. Leaf-set members are included as a slow backstop: fast leaf
// failure detection comes from the heartbeat chain and announcements, but
// a dead node on a node's *left* side produces no heartbeat signal towards
// it, and if the detector's announcement was lost (for example during a
// massive correlated failure) the ghost would otherwise persist forever.
// For members that do generate traffic, suppression makes this free.
func (n *Node) scanRoutingTable(now time.Duration) {
	trt := n.trtCurrent
	scan := func(e NodeRef) {
		rec := n.peers.Obtain(e.ID, e.Addr, now)
		last := rec.LastLiveness
		if last == 0 {
			// First sight: start the probing clock now.
			rec.LastLiveness = now
			return
		}
		if now-last < trt {
			return
		}
		if lr := rec.LastRecv; lr != 0 && now-lr < trt {
			n.counters.SuppressedProbes++
			rec.LastLiveness = lr
			return
		}
		rec.LastLiveness = now
		n.probe(e, false, false)
	}
	// Sending a probe changes neither structure, so both are walked in
	// place: the table, then the leaf members it lacks.
	n.rt.each(scan)
	for _, m := range n.ls.Members() {
		if !n.rt.Contains(m.ID) {
			scan(m)
		}
	}
}
