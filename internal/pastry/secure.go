package pastry

import (
	"sort"

	"mspastry/internal/id"
	"mspastry/internal/secure"
)

// Secure routing (Byzantine-routing defenses).
//
// MSPastry's crash-fault machinery is blind to malicious peers: a node
// that acknowledges a lookup hop and then drops the message, or routes
// it into a ring of colluders, looks perfectly healthy to per-hop acks
// and liveness probes. The defense, following the secure-routing line of
// work (Castro et al.; "Our Brothers' Keepers"), has three parts:
//
//  1. Every secure lookup asks the root for a completion report
//     (RootReport) carrying the root's leaf set.
//  2. The origin runs the routing failure test on each report
//     (internal/secure): node identifiers are uniform, so an honest
//     root's neighbourhood is about as dense as the origin's own; a
//     colluder-forged neighbourhood, drawn from only the f·N malicious
//     nodes, is ~1/f times sparser and fails the density check.
//  3. A failed test — or no report at all within secureReplyTimeout —
//     re-issues the lookup over secureFanout neighbour-diverse first
//     hops. The reports vote: the first passing report closes the
//     lookup, and any failed reporter whose root claim is strictly
//     farther from the key than the accepted root is confirmed bad and
//     fed to the exclusion/breaker machinery (breaker.go distrust).
//
// All state is origin-local: a secureSession per outstanding lookup,
// keyed by the origin's sequence number, plus the density estimator.

// secureSession tracks one secure lookup at its origin from issue until
// a report is accepted or every redundant round is exhausted.
type secureSession struct {
	lk     *Lookup
	rounds int
	// firstHops records first hops already used by redundant rounds, so
	// successive rounds spread over fresh neighbours.
	firstHops map[id.ID]bool
	// reported dedupes reports per responder (redundant copies can reach
	// the same root more than once).
	reported map[id.ID]bool
	// suspects are reporters whose reports failed the test; they are
	// distrusted if a strictly closer root is later accepted.
	suspects []NodeRef
	timer    Timer
}

// startSecureSession registers the lookup for report tracking and arms
// the reply timeout.
func (n *Node) startSecureSession(lk *Lookup) {
	ss := &secureSession{
		lk:        lk,
		firstHops: make(map[id.ID]bool),
		reported:  make(map[id.ID]bool),
	}
	n.secureSess[lk.Seq] = ss
	n.armSecureTimer(ss)
}

func (n *Node) armSecureTimer(ss *secureSession) {
	stop(ss.timer)
	seq := ss.lk.Seq
	ss.timer = n.schedule(secureReplyTimeout, func() { n.secureTimeout(seq) })
}

// handleRootReport evaluates one root completion report against the
// local density estimate.
func (n *Node) handleRootReport(rr *RootReport) {
	ss, ok := n.secureSess[rr.Seq]
	if !ok || ss.lk.Key != rr.Key {
		// Closed session, stale sequence number, or a forgery for a
		// lookup this node never issued.
		return
	}
	if ss.reported[rr.From.ID] {
		return
	}
	ss.reported[rr.From.ID] = true
	n.counters.SecureReports++
	v := secure.Check(secure.Report{
		Key:    rr.Key,
		Root:   rr.From.ID,
		Leaves: refIDs(rr.Leaves),
	}, n.localDensity(), secure.Config{
		DensityRatio:  secureDensityRatio,
		DistanceRatio: secureDistanceRatio,
		// A plausible root's leaf set is about as full as our own; half
		// tolerates transient repair without admitting colluder-only sets.
		MinLeaves: (len(n.ls.Members()) + 1) / 2,
	})
	if !v.Suspicious() {
		n.counters.SecureTestPass++
		ids := append(refIDs(rr.Leaves), rr.From.ID)
		if g, ok := secure.MeanGap(ids); ok {
			n.density.Observe(g)
		}
		n.acceptReport(ss, rr.From)
		return
	}
	n.counters.SecureTestFail++
	ss.suspects = append(ss.suspects, rr.From)
	// React to the first suspicion immediately instead of waiting out the
	// timer; later suspicions wait for the current round's timeout so a
	// burst of forged reports cannot burn every round at once.
	if ss.rounds == 0 {
		n.redundantRound(ss)
	}
}

// acceptReport closes the session on a passing report and settles the
// vote: every suspect whose root claim lost to a strictly closer
// accepted root provably lied (identifiers are certified — it could not
// have been the root while a closer live node existed) and is
// distrusted. Requiring both a failed test and a lost vote keeps a
// single statistical misfire from punishing an honest node.
func (n *Node) acceptReport(ss *secureSession, winner NodeRef) {
	for _, s := range ss.suspects {
		if s.ID != winner.ID && id.CloserToKey(ss.lk.Key, winner.ID, s.ID) {
			n.distrust(s)
		}
	}
	n.closeSecureSession(ss)
}

// secureSelfDelivered resolves a session whose origin turned out to be
// the key's root itself: nothing to test.
func (n *Node) secureSelfDelivered(seq uint64) {
	if ss, ok := n.secureSess[seq]; ok {
		n.closeSecureSession(ss)
	}
}

func (n *Node) closeSecureSession(ss *secureSession) {
	stop(ss.timer)
	ss.timer = nil
	delete(n.secureSess, ss.lk.Seq)
}

// secureTimeout fires when no acceptable report arrived within the
// reply timeout: issue another diverse round, or give up after
// secureMaxRounds (the copies already in flight can still deliver — the
// origin just stops spending redundancy on the lookup).
func (n *Node) secureTimeout(seq uint64) {
	ss, ok := n.secureSess[seq]
	if !ok {
		return
	}
	if ss.rounds < secureMaxRounds {
		n.redundantRound(ss)
		return
	}
	n.counters.SecureGiveUps++
	n.closeSecureSession(ss)
}

// redundantRound re-issues the lookup over up to secureFanout diverse
// first hops. Each copy restarts its hop count (it is a fresh path, not
// a continuation) and keeps the same sequence and trace identifiers, so
// the metrics pipeline deduplicates deliveries and the reports land in
// this session.
func (n *Node) redundantRound(ss *secureSession) {
	ss.rounds++
	n.counters.SecureRedundantRounds++
	for _, h := range n.diverseFirstHops(ss.lk.Key, ss.firstHops) {
		ss.firstHops[h.ID] = true
		cp := *ss.lk
		cp.Hops = 0
		n.counters.SecureRedundantSends++
		n.sendHop(&cp, nil, cp.Key, h, nil, !cp.NoAck)
	}
	// Re-arm even when no fresh hop was available: copies already in
	// flight may still produce a report, and the timer owns give-up.
	n.armSecureTimer(ss)
}

// diverseFirstHops selects up to secureFanout distinct first hops for a
// redundant round: every known peer (leaf set + routing table) not yet
// used for this lookup and not currently excluded, ordered closest to
// the key, with at most one pick per top-level identifier digit —
// neighbour diversity — so one captured region of the id space cannot
// swallow the whole round. Remaining slots fill closest-first when
// diversity runs short.
func (n *Node) diverseFirstHops(key id.ID, used map[id.ID]bool) []NodeRef {
	excl := n.isExcluded(nil)
	seen := make(map[id.ID]bool)
	var cands []NodeRef
	for _, r := range append(n.ls.Members(), n.rt.Entries()...) {
		if r.ID == n.self.ID || seen[r.ID] || used[r.ID] || excl(r.ID) {
			continue
		}
		seen[r.ID] = true
		cands = append(cands, r)
	}
	sort.Slice(cands, func(i, j int) bool {
		return id.CloserToKey(key, cands[i].ID, cands[j].ID)
	})
	want := secureFanout
	picks := make([]NodeRef, 0, want)
	picked := make(map[id.ID]bool)
	usedDigit := make(map[int]bool)
	for _, c := range cands {
		if len(picks) >= want {
			break
		}
		d := c.ID.Digit(0, n.cfg.B)
		if usedDigit[d] {
			continue
		}
		usedDigit[d] = true
		picked[c.ID] = true
		picks = append(picks, c)
	}
	for _, c := range cands {
		if len(picks) >= want {
			break
		}
		if !picked[c.ID] {
			picked[c.ID] = true
			picks = append(picks, c)
		}
	}
	return picks
}

// localDensity is the origin's current id-space density estimate: its
// own leaf-set gap blended with the history of accepted lookup reports.
func (n *Node) localDensity() float64 {
	members := n.ls.Members()
	ids := make([]id.ID, 0, len(members)+1)
	ids = append(ids, n.self.ID)
	for _, m := range members {
		ids = append(ids, m.ID)
	}
	leafGap, ok := secure.MeanGap(ids)
	if !ok {
		leafGap = 0
	}
	return n.density.Blend(leafGap)
}

func refIDs(refs []NodeRef) []id.ID {
	out := make([]id.ID, len(refs))
	for i, r := range refs {
		out[i] = r.ID
	}
	return out
}
