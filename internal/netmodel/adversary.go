// Byzantine adversary model: a configurable fraction of endpoints is
// marked malicious and attacks the routing layer with composable
// behaviours, injected at the same two points the fault set uses — the
// send path (poisoned advertisements) and the delivery path (dropped,
// misrouted or captured lookups). Malicious nodes run the unmodified
// node code for everything else: they join, probe, heartbeat and answer
// honestly except where a behaviour says otherwise, which is exactly the
// adversary the routing failure test is designed to catch — one that
// looks healthy to crash-fault machinery.
//
// The model is deterministic without a random stream of its own: which
// nodes are malicious is the caller's choice (the harness draws it from
// a dedicated seeded stream), and every attack decision below is a pure
// function of message and colluder state, with colluder sets reduced by
// strict ring-distance comparison so map iteration order never leaks
// into delivery order.
package netmodel

import (
	"sort"

	"mspastry/internal/id"
	"mspastry/internal/pastry"
	"mspastry/internal/secure"
)

// Behavior is a bit set of adversarial behaviours.
type Behavior uint

const (
	// AdvDrop silently discards lookups in transit (the node still acks
	// them when AdvForgeAck is set, so per-hop machinery sees a healthy
	// hop).
	AdvDrop Behavior = 1 << iota
	// AdvMisroute forwards transit lookups toward the colluder closest to
	// the key instead of the true next hop; the closest colluder claims
	// to be the root and, if a report was requested, forges one with a
	// colluder-only leaf set.
	AdvMisroute
	// AdvPoison rewrites outgoing routing-table advertisements (row
	// replies and announcements, repair replies, join-state rows,
	// nearest-neighbour candidates) to point at colluders.
	AdvPoison
	// AdvForgeAck acknowledges consumed lookups so the sender's per-hop
	// retransmission never fires; without it, crash-fault rerouting
	// already recovers most attacks.
	AdvForgeAck

	// AdvAll composes every behaviour.
	AdvAll = AdvDrop | AdvMisroute | AdvPoison | AdvForgeAck
)

// AdversaryStats tallies attack activity.
type AdversaryStats struct {
	// LookupsDropped counts transit lookups silently consumed.
	LookupsDropped uint64
	// LookupsMisrouted counts transit lookups diverted to a colluder.
	LookupsMisrouted uint64
	// RootClaims counts lookups captured by a colluder posing as the
	// key's root.
	RootClaims uint64
	// ReportsForged counts forged secure-layer reports sent for captured
	// lookups.
	ReportsForged uint64
	// AcksForged counts per-hop acks forged for consumed lookups.
	AcksForged uint64
	// MessagesPoisoned counts outgoing advertisements rewritten to point
	// at colluders.
	MessagesPoisoned uint64
}

// Adversary is the network's Byzantine fault state. The zero state marks
// nobody; obtain one with Network.Adversary. All mutation must happen
// inside simulator events.
type Adversary struct {
	nw        *Network
	behaviors Behavior
	malicious map[string]bool
	// Stats tallies attack activity for experiment output.
	Stats AdversaryStats
}

// Adversary returns the network's adversary, creating it on first use.
func (nw *Network) Adversary() *Adversary {
	if nw.adv == nil {
		nw.adv = &Adversary{nw: nw, malicious: make(map[string]bool)}
	}
	return nw.adv
}

// SetBehaviors selects which attacks marked nodes mount.
func (a *Adversary) SetBehaviors(b Behavior) { a.behaviors = b }

// Mark turns the endpoint with the given address malicious (across
// reincarnations: the address stays marked).
func (a *Adversary) Mark(addr string) { a.malicious[addr] = true }

// Count returns how many addresses are marked.
func (a *Adversary) Count() int { return len(a.malicious) }

// misrouteTTL bounds colluder-to-colluder forwarding so a (buggy) cycle
// cannot loop forever; generously above any honest route length.
const misrouteTTL = 64

// interceptInbound runs when a message arrives at endpoint dst, before
// the node sees it. It returns true when the adversary consumed the
// message. Only transit lookups are attacked — maintenance traffic is
// answered honestly (a node that eats probes gets evicted by the
// crash-fault machinery and loses its attack position) — and a malicious
// node that is itself the key's root delivers honestly: dropping at the
// root is a replication problem, not a routing one, and no routing
// defense can recover a key whose only root is hostile.
func (a *Adversary) interceptInbound(dst *Endpoint, m pastry.Message) bool {
	if a.behaviors&(AdvDrop|AdvMisroute) == 0 || !a.malicious[dst.addr] {
		return false
	}
	env, ok := m.(*pastry.Envelope)
	if !ok || env.Lookup == nil {
		return false
	}
	node := dst.node
	if node.IsRootFor(env.Lookup.Key) {
		return false
	}
	// The lookup is being consumed. Forge the per-hop ack first so the
	// sender's retransmission machinery sees a healthy hop.
	if a.behaviors&AdvForgeAck != 0 && env.NeedAck {
		a.Stats.AcksForged++
		dst.Send(env.From, &pastry.Ack{Xfer: env.Xfer, From: node.Ref()})
	}
	if a.behaviors&AdvMisroute != 0 {
		a.misroute(dst, env.Lookup)
	} else {
		a.Stats.LookupsDropped++
		a.nw.dropN(DropAdversary, 1)
	}
	return true
}

// misroute diverts a captured lookup toward the live colluder closest to
// the key; when this node is already the closest colluder it claims the
// root, forging a completion report from colluder leaves when the origin
// asked for one.
func (a *Adversary) misroute(dst *Endpoint, lk *pastry.Lookup) {
	self := dst.node.Ref()
	key := lk.Key
	best, found := a.closestColluder(key, dst.addr)
	if found && id.CloserToKey(key, best.ID, self.ID) && lk.Hops < misrouteTTL {
		cp := *lk
		cp.Hops++
		a.Stats.LookupsMisrouted++
		dst.Send(best, &pastry.Envelope{From: self, Lookup: &cp})
		return
	}
	// Capture: the lookup dies here, posing as delivered.
	a.Stats.RootClaims++
	a.nw.dropN(DropAdversary, 1)
	if secure.IsRequest(lk.Payload) && lk.Origin.ID != self.ID {
		a.Stats.ReportsForged++
		var leaves []id.ID
		for _, c := range a.colludersNear(self.ID, dst.addr, 16) {
			leaves = append(leaves, c.ID)
		}
		dst.Send(lk.Origin, &pastry.AppDirect{From: self,
			Payload: secure.EncodeReport(secure.Report{Seq: lk.Seq, Key: lk.Key, Leaves: leaves})})
	}
}

// rewriteOutbound applies AdvPoison on the send path: routing-table
// advertisements leaving a malicious node are rewritten to point at
// colluders near the receiver's identifier, maximising the chance the
// receiver installs them. Leaf-set membership messages (probes,
// heartbeats, join-reply leaves) are deliberately left honest: leaf-set
// lies attack ring maintenance itself, which no lookup-level defense can
// repair, and MSPastry's probe-before-insert discipline already forces a
// poisoned entry to answer probes — which colluders do — so routing-table
// poison is the attack that matters for routing.
func (a *Adversary) rewriteOutbound(src *Endpoint, to pastry.NodeRef, m pastry.Message) pastry.Message {
	if a.behaviors&AdvPoison == 0 || !a.malicious[src.addr] {
		return m
	}
	poison := func(orig []pastry.NodeRef) ([]pastry.NodeRef, bool) {
		if len(orig) == 0 {
			return nil, false
		}
		sub := a.colludersNear(to.ID, src.addr, len(orig))
		if len(sub) == 0 {
			return nil, false
		}
		a.Stats.MessagesPoisoned++
		return sub, true
	}
	switch msg := m.(type) {
	case *pastry.RowReply:
		if sub, ok := poison(msg.Entries); ok {
			cp := *msg
			cp.Entries = sub
			return &cp
		}
	case *pastry.RowAnnounce:
		if sub, ok := poison(msg.Entries); ok {
			cp := *msg
			cp.Entries = sub
			return &cp
		}
	case *pastry.RepairReply:
		if sub, ok := poison(msg.Entries); ok {
			cp := *msg
			cp.Entries = sub
			return &cp
		}
	case *pastry.NNStateReply:
		if sub, ok := poison(msg.Entries); ok {
			cp := *msg
			cp.Entries = sub
			return &cp
		}
	case *pastry.LSProbeReply:
		if sub, ok := poison(msg.Near); ok {
			cp := *msg
			cp.Near = sub
			return &cp
		}
	case *pastry.JoinReply:
		if len(msg.Rows) > 0 {
			if sub, ok := poison(msg.Rows); ok {
				cp := *msg
				cp.Rows = sub
				return &cp
			}
		}
	}
	return m
}

// liveColluders returns the refs of all live, active marked nodes except
// the given one. Order is map order — callers must reduce or sort.
func (a *Adversary) liveColluders(exclude string) []pastry.NodeRef {
	var out []pastry.NodeRef
	for addr := range a.malicious {
		if addr == exclude {
			continue
		}
		ep, ok := a.nw.eps[addr]
		if !ok || !ep.Up() || !ep.node.Active() {
			continue
		}
		out = append(out, ep.node.Ref())
	}
	return out
}

// closestColluder finds the live colluder closest to the key. Reduction
// by strict CloserToKey comparison makes the result independent of map
// iteration order.
func (a *Adversary) closestColluder(key id.ID, exclude string) (pastry.NodeRef, bool) {
	var best pastry.NodeRef
	found := false
	for _, c := range a.liveColluders(exclude) {
		if !found || id.CloserToKey(key, c.ID, best.ID) {
			best, found = c, true
		}
	}
	return best, found
}

// colludersNear returns up to max live colluders sorted by closeness to
// the target identifier (sorted, so the result is deterministic).
func (a *Adversary) colludersNear(target id.ID, exclude string, max int) []pastry.NodeRef {
	out := a.liveColluders(exclude)
	sort.Slice(out, func(i, j int) bool {
		if id.CloserToKey(target, out[i].ID, out[j].ID) {
			return true
		}
		if id.CloserToKey(target, out[j].ID, out[i].ID) {
			return false
		}
		return out[i].Addr < out[j].Addr
	})
	if len(out) > max {
		out = out[:max]
	}
	return out
}
