package pastry

import (
	"slices"
	"time"

	"mspastry/internal/id"
)

// probeLeaf starts (or upgrades to) a leaf-set probe of ref, per Figure 2's
// probei: no-op if the node is already being probed with a leaf probe or
// has been marked faulty.
func (n *Node) probeLeaf(ref NodeRef) { n.probeLeafAnnounce(ref, false) }

// probeLeafAnnounce starts a leaf probe; announce marks it as first-hand
// failure suspicion (its timeout is announced to the leaf set).
func (n *Node) probeLeafAnnounce(ref NodeRef, announce bool) {
	if ref.ID == n.self.ID || ref.IsZero() {
		return
	}
	if _, bad := n.failed[ref.ID]; bad {
		return
	}
	if ps, ok := n.probing[ref.ID]; ok {
		if announce {
			ps.announce = true
		}
		if !ps.isLeaf {
			// Upgrade an in-flight liveness ping to a leaf probe so the
			// reply carries leaf-set state.
			ps.isLeaf = true
			n.sendProbeMsg(ps)
		}
		return
	}
	n.startProbe(probeState{ref: ref, isLeaf: true, announce: announce})
}

// probeLiveness starts a routing-table liveness probe of ref.
func (n *Node) probeLiveness(ref NodeRef) {
	if ref.ID == n.self.ID || ref.IsZero() {
		return
	}
	if _, bad := n.failed[ref.ID]; bad {
		return
	}
	if _, ok := n.probing[ref.ID]; ok {
		return
	}
	n.startProbe(probeState{ref: ref})
}

// startProbe starts the probe p describes (its ref and kind): it fills a
// record with p — a parked record when the free list has any, a new one
// otherwise; owner and bound timeout are set once and survive every park,
// as a hop record's do (takeHop) — enters it in n.probing, sends the probe
// and arms its timeout.
func (n *Node) startProbe(p probeState) {
	var ps *probeState
	if last := len(n.freeProbes) - 1; last >= 0 {
		ps = n.freeProbes[last]
		n.freeProbes = n.freeProbes[:last]
	} else {
		ps = &probeState{n: n}
		ps.fire = ps.timeout
	}
	p.n, p.fire = ps.n, ps.fire
	*ps = p
	n.probing[p.ref.ID] = ps
	n.sendProbeMsg(ps)
	n.armProbeTimer(ps)
}

// parkProbe ends the probe: it takes ps out of n.probing, cancels its timer
// (a no-op on the one that is running), empties the record and puts it on
// the free list (up to maxFree).
func (n *Node) parkProbe(ps *probeState) {
	delete(n.probing, ps.ref.ID)
	stop(ps.timer)
	*ps = probeState{n: n, fire: ps.fire}
	if len(n.freeProbes) < n.maxFree() {
		n.freeProbes = append(n.freeProbes, ps)
	}
}

func (n *Node) sendProbeMsg(ps *probeState) {
	if ps.isLeaf {
		n.send(ps.ref, &LSProbe{
			From:     n.self,
			Leaves:   n.ls.Members(),
			Failed:   n.failedList(),
			NeedNear: !n.ls.Complete(),
			TrtHint:  n.trtLocal,
		})
		return
	}
	if ps.reconnect {
		n.counters.SentReconnectProbes++
	} else {
		n.counters.SentRTProbes++
	}
	n.send(ps.ref, &RTProbe{From: n.self, TrtHint: n.trtLocal})
}

func (n *Node) armProbeTimer(ps *probeState) {
	ps.timer = n.env.Schedule(n.cfg.To, ps.fire)
}

// timeout is the probe timer's callback, guarded like pendingHop.timeout.
func (ps *probeState) timeout() {
	if ps.n.alive {
		ps.n.probeTimeout(ps)
	}
}

// failedList snapshots the failure records in identifier order. The order
// matters: receivers process the list sequentially and each confirm-probe
// mutates their leaf set, so a map-order list would make the repair
// cascade — and every byte count derived from it — vary between otherwise
// identical runs. The list travels in a message, so it is a fresh slice —
// or nil, the common case, when nothing has failed.
func (n *Node) failedList() []NodeRef {
	if len(n.failed) == 0 {
		return nil
	}
	out := make([]NodeRef, 0, len(n.failed))
	for _, ref := range n.failed {
		out = append(out, ref)
	}
	slices.SortFunc(out, func(a, b NodeRef) int { return a.ID.Cmp(b.ID) })
	return out
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
		// Probe retries draw on the peer's retry budget: under overload a
		// storm of simultaneous suspicions would otherwise multiply every
		// timeout into maxProbeRetries extra packets. A suppressed resend
		// keeps the timer machinery running, so the verdict arrives on the
		// same schedule either way — the peer just is not re-pinged.
		if n.retryAllowed(ps.ref) {
			n.sendProbeMsg(ps)
		}
		n.armProbeTimer(ps)
		return
	}
	if ps.reconnect {
		// Still unreachable: restore the failure record without
		// re-counting the failure (it was counted when first marked
		// faulty) and without an announcement.
		n.failed[ps.ref.ID] = ps.ref
		n.doneProbing(ps.ref.ID)
		return
	}
	n.markFaulty(ps.ref, ps.announce)
	n.doneProbing(ps.ref.ID)
}

// markFaulty removes a node from all routing state, records the failure for
// the failure-rate estimator, and — when the node was a leaf-set member —
// announces the failure to the rest of the leaf set (whose probe replies in
// turn supply repair candidates).
func (n *Node) markFaulty(ref NodeRef, announce bool) {
	wasLeaf := n.ls.Contains(ref.ID)
	n.ls.Remove(ref.ID)
	n.rt.Remove(ref.ID)
	n.failed[ref.ID] = ref
	n.rememberFailed(ref)
	delete(n.excluded, ref.ID)
	n.clearSlot(ref.ID, n.slotHint)
	// The reconnect cache owns the peer now; breaker and budget state
	// would only shadow it.
	n.dropBreaker(ref.ID)
	n.recordFailure(n.env.Now())
	if announce && wasLeaf && n.active {
		if n.sobs != nil {
			n.sobs.LeafSetRepair(n, "announce")
		}
		for _, m := range n.ls.Members() {
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
	if len(n.probing) > 0 {
		return
	}
	if n.ls.Complete() {
		if !n.active {
			n.activate()
		} else {
			clear(n.failed)
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
	if progressed || n.repairTimer != nil {
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
	if s.lastRepair != 0 && now-s.lastRepair < n.cfg.To {
		n.armRepairRetry(n.cfg.To - (now - s.lastRepair))
		return false
	}
	s.lastRepair = now
	if n.sobs != nil {
		n.sobs.LeafSetRepair(n, cause)
	}
	n.probeLeaf(ref)
	return true
}

func (n *Node) armRepairRetry(d time.Duration) {
	if n.repairTimer != nil {
		return
	}
	n.repairTimer = n.schedule(d, func() {
		n.repairTimer = nil
		if len(n.probing) == 0 && !n.ls.Complete() {
			n.repairLeafSet()
		}
	})
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

// handleLSProbe implements RECEIVE(LS-PROBE) from Figure 2.
func (n *Node) handleLSProbe(p *LSProbe) {
	n.processLeafInfo(p.From, p.Leaves, nil, p.Failed)
	reply := &LSProbeReply{
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
	n.doneProbing(p.From.ID)
}

// processLeafInfo is the common body of LS-PROBE and LS-PROBE-REPLY
// handling (Figure 2): insert the direct sender; re-probe members the
// sender claims have failed (to recover from false positives); remove them
// meanwhile; and probe any new leaf-set candidates — the sender's leaves,
// then the nearest-known list a repair reply adds — before inserting them.
func (n *Node) processLeafInfo(from NodeRef, leaves, near, failed []NodeRef) {
	delete(n.failed, from.ID)
	n.ls.Add(from)
	n.rt.Add(from)
	// Nodes the sender believes faulty: if they are in our leaf set, probe
	// them to confirm, and remove them until they prove alive.
	for _, f := range failed {
		if f.ID == n.self.ID {
			continue
		}
		if n.ls.Contains(f.ID) {
			n.ls.Remove(f.ID)
			n.probeLeaf(f)
		}
	}
	// Candidate members from the sender's leaf set: probe before insertion
	// (a node never enters the leaf set without direct contact).
	for _, cand := range leaves {
		n.probeCandidate(cand)
	}
	for _, cand := range near {
		n.probeCandidate(cand)
	}
}

// probeCandidate probes a node the sender vouched for if it is not known
// dead, not yet a member, and would enter the leaf set once it answers.
func (n *Node) probeCandidate(cand NodeRef) {
	if cand.ID == n.self.ID {
		return
	}
	if _, bad := n.failed[cand.ID]; bad {
		return
	}
	if n.ls.Contains(cand.ID) {
		return
	}
	if n.wouldExtendLeafSet(cand) && n.markCandidateProbe(cand) {
		n.probeLeaf(cand)
	}
}

// wouldExtendLeafSet reports whether cand would enter the leaf set if it
// proved alive, bounding probe traffic to useful candidates.
func (n *Node) wouldExtendLeafSet(cand NodeRef) bool {
	half := n.ls.Half()
	left, right := n.ls.Left(), n.ls.Right()
	if len(left) < half || len(right) < half {
		return true
	}
	farLeft := left[len(left)-1]
	if cand.ID.Clockwise(n.self.ID).Cmp(farLeft.ID.Clockwise(n.self.ID)) < 0 {
		return true
	}
	farRight := right[len(right)-1]
	return n.self.ID.Clockwise(cand.ID).Cmp(n.self.ID.Clockwise(farRight.ID)) < 0
}

// nearestKnown returns up to k known nodes closest (in ring distance) to
// the target identifier, drawn from the routing table and leaf set. It
// implements the reply side of generalised leaf-set repair. Candidates are
// gathered in the node's scratch slice — table entries in row-major order,
// then leaf members the table lacks; neither structure holds the local
// node or an id twice — and only the k chosen, which travel in the reply,
// are copied out.
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
	// Selection sort of the k closest is fine at leaf-set scale.
	if k > len(all) {
		k = len(all)
	}
	for i := 0; i < k; i++ {
		minIdx := i
		for j := i + 1; j < len(all); j++ {
			if id.CloserToKey(target, all[j].ID, all[minIdx].ID) {
				minIdx = j
			}
		}
		all[i], all[minIdx] = all[minIdx], all[i]
	}
	return slices.Clone(all[:k])
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
	if n.ls.Contains(ref.ID) {
		n.probeLeafAnnounce(ref, true)
		return
	}
	n.probeLiveness(ref)
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
		n.probeLiveness(e)
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
