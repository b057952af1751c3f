package pastry

import (
	"time"

	"mspastry/internal/id"
)

// joinRetryAfter is the backoff before a stalled join is restarted.
const joinRetryAfter = 30 * time.Second

// sendJoinRequest routes a join request to this node's own identifier via
// the seed. Join requests always use per-hop acks: a lost join is costly.
func (n *Node) sendJoinRequest(seed NodeRef) {
	ph := n.takeHop()
	ph.join, ph.key = &JoinRequest{Joiner: n.self}, n.self.ID
	n.transmit(ph, seed, HopForward, n.rtoFor(seed))
	n.armJoinWatchdog()
}

// armJoinWatchdog restarts the join if the node has not activated within
// the retry window (for example, the seed crashed mid-join).
func (n *Node) armJoinWatchdog() {
	start := n.joinStart
	n.schedule(joinRetryAfter, func() {
		if n.active || n.joinStart != start {
			return
		}
		n.scheduleJoinRetry()
	})
}

// scheduleJoinRetry restarts the join protocol with a fresh seed.
func (n *Node) scheduleJoinRetry() {
	seed := n.joinSeed
	if n.seedSource != nil {
		if s, ok := n.seedSource(); ok {
			seed = s
		}
	}
	if seed.IsZero() || seed.ID == n.self.ID {
		return
	}
	// Reset join-local state but keep measured distances.
	n.joinStart = n.env.Now()
	n.joinSeed = seed
	for _, ps := range n.probing {
		n.parkProbe(ps)
	}
	clear(n.failed)
	n.sendJoinRequest(seed)
}

// handleJoinReply initialises routing state from the accumulated rows and
// the root's leaf set, then probes every leaf-set member; the node becomes
// active only when all of them have confirmed (Figure 2).
func (n *Node) handleJoinReply(jr *JoinReply) {
	if n.active {
		return
	}
	for _, ref := range jr.Rows {
		n.rt.Add(ref)
	}
	for _, ref := range jr.Leaves {
		n.rt.Add(ref)
		n.ls.Add(ref)
	}
	members := n.ls.Members()
	if len(members) == 0 {
		// The root is alone (two-node overlay): the reply sender is our
		// entire neighbourhood, but we cannot see it here since JoinReply
		// has no From — rows contain the route's nodes, probe those.
		for _, ref := range jr.Rows {
			n.ls.Add(ref)
		}
		members = n.ls.Members()
	}
	if len(members) == 0 {
		n.scheduleJoinRetry()
		return
	}
	for _, m := range members {
		n.probeLeaf(m)
	}
}

// announceRows implements the join announcement of constrained gossiping:
// a freshly activated node sends the r-th row of its routing table to each
// node in that row, which both announces the newcomer and spreads
// information about previous joiners (paper §2).
func (n *Node) announceRows() {
	if !n.cfg.PNS {
		return
	}
	for r := 0; r < n.rt.NumRows(); r++ {
		row := n.rt.Row(r)
		for _, target := range row {
			n.send(target, &RowAnnounce{From: n.self, Row: r, Entries: row})
		}
	}
}

// startNearestNeighbour begins the nearest-neighbour algorithm of Castro
// et al.: starting from a random seed, repeatedly fetch the current
// candidate's leaf set and routing table, measure distance to each entry
// with a single probe, and move to any strictly closer node; when no
// improvement remains, use the final node to seed the join.
func (n *Node) startNearestNeighbour(seed NodeRef) {
	n.nn = &nnState{current: seed, budget: 12}
	n.send(seed, &NNStateRequest{From: n.self})
	state := n.nn
	state.timer = n.schedule(4*n.cfg.To, func() { n.nnGiveUp(state) })
}

// nnState tracks the nearest-neighbour search during a join.
type nnState struct {
	current   NodeRef
	currentD  time.Duration
	measured  bool
	pendingN  int
	bestCand  NodeRef
	bestD     time.Duration
	haveCand  bool
	budget    int
	timer     Timer
	completed bool
}

// nnGiveUp abandons the search and joins through the best node seen.
func (n *Node) nnGiveUp(state *nnState) {
	if state.completed || n.nn != state {
		return
	}
	n.nnFinish(state)
}

func (n *Node) nnFinish(state *nnState) {
	state.completed = true
	stop(state.timer)
	n.nn = nil
	n.sendJoinRequest(state.current)
}

// handleNNStateReply processes the candidate's state: probe distance (one
// sample, per the paper's join-latency optimisation) to every entry we
// have not measured, tracking the closest.
func (n *Node) handleNNStateReply(msg *NNStateReply) {
	state := n.nn
	if state == nil || state.completed || n.active {
		return
	}
	cands := append(append([]NodeRef(nil), msg.Leaves...), msg.Entries...)
	cands = append(cands, msg.From)
	seen := map[id.ID]bool{n.self.ID: true}
	probeTargets := make([]NodeRef, 0, len(cands))
	for _, c := range cands {
		if seen[c.ID] {
			continue
		}
		seen[c.ID] = true
		probeTargets = append(probeTargets, c)
	}
	const maxPerRound = 24
	if len(probeTargets) > maxPerRound {
		probeTargets = probeTargets[:maxPerRound]
	}
	state.pendingN = len(probeTargets)
	if state.pendingN == 0 {
		n.nnFinish(state)
		return
	}
	for _, target := range probeTargets {
		target := target
		n.measureDistance(target, 1, func(rtt time.Duration, ok bool) {
			n.nnSample(state, target, rtt, ok)
		})
	}
}

// nnSample folds in one distance measurement for the search round; when
// the round completes, either move to a closer node or finish.
func (n *Node) nnSample(state *nnState, target NodeRef, rtt time.Duration, ok bool) {
	if state.completed || n.nn != state {
		return
	}
	state.pendingN--
	if ok {
		if target.ID == state.current.ID {
			state.currentD = rtt
			state.measured = true
		}
		if !state.haveCand || rtt < state.bestD {
			state.bestCand, state.bestD, state.haveCand = target, rtt, true
		}
	}
	if state.pendingN > 0 {
		return
	}
	state.budget--
	improved := state.haveCand && state.bestCand.ID != state.current.ID &&
		(!state.measured || state.bestD < state.currentD)
	if !improved || state.budget <= 0 {
		if state.haveCand && (!state.measured || state.bestD < state.currentD) {
			state.current = state.bestCand
		}
		n.nnFinish(state)
		return
	}
	state.current = state.bestCand
	state.currentD = state.bestD
	state.measured = true
	state.haveCand = false
	n.send(state.current, &NNStateRequest{From: n.self})
	stop(state.timer)
	state.timer = n.schedule(4*n.cfg.To, func() { n.nnGiveUp(state) })
}
