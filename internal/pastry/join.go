package pastry

import (
	"slices"
	"time"
)

// joinRetryAfter is the backoff before a stalled join is restarted.
const joinRetryAfter = 30 * time.Second

// sendJoinRequest routes a join request to this node's own identifier via
// the seed. Join requests always use per-hop acks: a lost join is costly.
func (n *Node) sendJoinRequest(seed NodeRef) {
	ph := n.takeHop()
	ph.join, ph.key = &JoinRequest{Joiner: n.self}, n.self.ID
	n.transmit(ph, seed, HopForward, n.rtoFor(seed))
	n.arm(timerJoinRetry, joinRetryAfter, &n.joinAlarm, nil)
}

// joinWatchdog restarts a join that has not activated joinRetryAfter after
// its request went out (for example, the seed crashed mid-join). A join
// restarted since has a watchdog of its own.
func (n *Node) joinWatchdog() {
	if n.active || n.env.Now()-n.joinStart < joinRetryAfter {
		return
	}
	n.scheduleJoinRetry()
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
	n.clearFailed()
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
		n.admit(ref)
	}
	members := n.ls.Members()
	if len(members) == 0 {
		// The root is alone (two-node overlay): the reply sender is our
		// entire neighbourhood, but we cannot see it here since JoinReply
		// has no From — rows contain the route's nodes, probe those.
		for _, ref := range jr.Rows {
			n.admit(ref)
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
	n.askNN(seed)
}

// askNN asks the search's current candidate for its routing state and
// re-arms the search's give-up timer.
func (n *Node) askNN(ref NodeRef) {
	n.send(ref, &NNStateRequest{From: n.self})
	n.nnAlarm.Stop()
	n.arm(timerNNGiveUp, 4*n.cfg.To, &n.nnAlarm, nil)
}

// nnState tracks the nearest-neighbour search during a join; n.nn is the
// search in progress, nil once it finished.
type nnState struct {
	current  NodeRef
	currentD time.Duration
	measured bool
	pendingN int
	bestCand NodeRef
	bestD    time.Duration
	haveCand bool
	budget   int
}

// nnFinish ends the search and joins through the best node seen: when no
// closer node is left, when the budget runs out, or when the give-up timer
// fires (it is due exactly while a search is in progress).
func (n *Node) nnFinish(state *nnState) {
	n.nnAlarm.Stop()
	n.nn = nil
	n.sendJoinRequest(state.current)
}

// handleNNStateRequest answers a nearest-neighbour query with this node's
// leaf set and routing-table entries.
func (n *Node) handleNNStateRequest(req *NNStateRequest) {
	n.send(req.From, &NNStateReply{From: n.self, Leaves: n.ls.Members(), Entries: n.rt.Entries()})
}

// handleNNStateReply processes the candidate's state: probe distance (one
// sample, per the paper's join-latency optimisation) to every entry we
// have not measured, tracking the closest.
func (n *Node) handleNNStateReply(msg *NNStateReply) {
	state := n.nn
	if state == nil || n.active {
		return
	}
	// The round's targets: the candidate's leaves, entries and itself, each
	// once and never this node, the first maxPerRound of them. They are
	// gathered in the node's scratch slice: measureDistance only appends to
	// sessions and sends, so nothing reaches the slice before the loop ends.
	const maxPerRound = 24
	targets := slices.Grow(n.refScratch[:0], maxPerRound)
	add := func(c NodeRef) {
		if len(targets) == maxPerRound || c.ID == n.self.ID {
			return
		}
		for _, t := range targets {
			if t.ID == c.ID {
				return
			}
		}
		targets = append(targets, c)
	}
	for _, c := range msg.Leaves {
		add(c)
	}
	for _, c := range msg.Entries {
		add(c)
	}
	add(msg.From)
	n.refScratch = targets[:0]
	state.pendingN = len(targets)
	if state.pendingN == 0 {
		n.nnFinish(state)
		return
	}
	for _, target := range targets {
		n.measureDistance(target, 1, state)
	}
}

// nnSample folds in one distance measurement for the search round; when
// the round completes, either move to a closer node or finish.
func (n *Node) nnSample(state *nnState, target NodeRef, rtt time.Duration, ok bool) {
	if n.nn != state {
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
	n.askNN(state.current)
}
