package pastry

import (
	"time"

	"mspastry/internal/id"
	"mspastry/internal/overload"
	"mspastry/internal/peer"
)

// Per-peer state slots on the unified peer registry (see internal/peer).
//
// Every piece of per-peer protocol state the node keeps — self-tuning
// hints, probe-suppression memory, overload protection, the reconnect
// graveyard, RTT estimators — hangs off one peer.Record in n.peers,
// under the slot handles registered here. Each prunable slot's PruneFunc
// states exactly how long its state stays meaningful; the single sweep
// at the end of every maintenance tick (sweepPeers) applies them all and
// evicts fully drained records, broadcasting the eviction to transports
// and upper layers. No per-peer state survives eviction from routing
// state: that is the registry's invariant, pinned by the cross-layer
// leak-detector test in the harness.
//
// The hint, the probe-suppression memory and the RTT estimator live in
// the record itself (peer.State). Each of the three slots holds
// &rec.State while its component is set and nil otherwise, so each keeps
// its own pruning rule and slot gauge, and a peer's first contact costs
// its record and nothing more.

// overloadState is the peer's overload protection: circuit breaker and
// retry-budget token bucket (either may be nil).
type overloadState struct {
	breaker *overload.Breaker
	budget  *overload.TokenBucket
}

// initPeers creates the registry and registers the component slots.
// Registration order is pruning order within a record (immaterial here:
// no pruner reads another slot).
func (n *Node) initPeers() {
	n.peers = peer.New(peer.Config{
		StrangerTTL: n.cfg.PeerStrangerTTL,
		AdmittedTTL: n.cfg.PeerAdmittedTTL,
	})
	n.slotHint = n.peers.NewSlot("trt-hint", n.pruneHint)
	n.slotSuppress = n.peers.NewSlot("suppress", n.pruneSuppress)
	n.slotOverload = n.peers.NewSlot("overload", n.pruneOverload)
	n.slotGrave = n.peers.NewSlot("graveyard", pruneKeep)
	n.slotRTT = n.peers.NewRetainedSlot("rtt")
}

// sweepPeers runs the registry's prune pass; called once per maintenance
// tick. Membership for lifecycle purposes is the full routing state plus
// peers under an outstanding probe (a probe target must not be evicted
// mid-probe).
func (n *Node) sweepPeers() {
	n.peers.Sweep(n.env.Now(), n.peerIsMember)
}

// PeerMember reports whether x currently counts as routing-state
// membership for the registry lifecycle: leaf set, routing table, or an
// outstanding probe. Exposed for the cross-layer leak detector.
func (n *Node) PeerMember(x id.ID) bool { return n.peerIsMember(x) }

func (n *Node) peerIsMember(x id.ID) bool {
	if _, ok := n.probing[x]; ok {
		return true
	}
	return n.inRoutingState(x)
}

// pruneHint drops self-tuning hints from peers no longer in the leaf set
// or routing table, so the median reflects live peers. Deliberately
// narrower than peerIsMember: a peer under probe but out of routing
// state must not keep voting.
func (n *Node) pruneHint(x id.ID, v any, _ time.Duration, _ bool) any {
	if !n.inRoutingState(x) {
		return nil
	}
	return v
}

// pruneSuppress expires each suppression timestamp at twice its pacing
// window — after that a re-probe would be due anyway, so the memory
// carries no information.
func (n *Node) pruneSuppress(_ id.ID, v any, now time.Duration, _ bool) any {
	s := &v.(*peer.State).Suppress
	if s.DistProbed != 0 && now-s.DistProbed > 2*n.cfg.RTMaintenance {
		s.DistProbed = 0
	}
	if s.LSCandidate != 0 && now-s.LSCandidate > 2*n.cfg.Tls {
		s.LSCandidate = 0
	}
	if s.LastRepair != 0 && now-s.LastRepair > 2*n.cfg.To {
		s.LastRepair = 0
	}
	if *s == (peer.Suppress{}) {
		return nil
	}
	return v
}

// pruneOverload drops idle overload-protection state so the slot tracks
// only peers under active suspicion: full (fully refilled) budget
// buckets, closed breakers with no strikes, and half-open breakers no
// traffic has tried for a full maximum cooldown carry no information.
// State for peers outside the leaf set and routing table goes too —
// routing only ever picks next hops from those two structures.
func (n *Node) pruneOverload(x id.ID, v any, now time.Duration, _ bool) any {
	st := v.(*overloadState)
	if st.budget != nil && (st.budget.Full(now) || !n.inRoutingState(x)) {
		st.budget = nil
	}
	if b := st.breaker; b != nil &&
		((b.State() == overload.BreakerClosed && b.Failures() == 0) || b.Stale(now) || !n.inRoutingState(x)) {
		st.breaker = nil
	}
	if st.budget == nil && st.breaker == nil {
		return nil
	}
	return v
}

// pruneKeep retains the slot value until it is cleared explicitly — the
// reconnect graveyard manages its own expiry (retryReconnect).
func pruneKeep(_ id.ID, v any, _ time.Duration, _ bool) any { return v }

// setTrtHint records the peer's advertised probing period.
func (n *Node) setTrtHint(rec *peer.Record, d time.Duration) {
	rec.State.TrtHint = d
	if rec.Get(n.slotHint) == nil {
		n.peers.Put(rec, n.slotHint, &rec.State)
	}
}

// suppressOf returns the record's suppression memory, creating it when
// absent (every caller writes a field right after checking it).
func (n *Node) suppressOf(rec *peer.Record) *peer.Suppress {
	if rec.Get(n.slotSuppress) == nil {
		rec.State.Suppress = peer.Suppress{}
		n.peers.Put(rec, n.slotSuppress, &rec.State)
	}
	return &rec.State.Suppress
}

// rttOf returns the record's RTT estimator, creating it when absent.
func (n *Node) rttOf(rec *peer.Record) *peer.RTT {
	if rec.Get(n.slotRTT) == nil {
		rec.State.RTT = peer.RTT{}
		n.peers.Put(rec, n.slotRTT, &rec.State)
	}
	return &rec.State.RTT
}

// overloadOf returns the record's overload state, creating it when
// absent.
func (n *Node) overloadOf(rec *peer.Record) *overloadState {
	if st, _ := rec.Get(n.slotOverload).(*overloadState); st != nil {
		return st
	}
	st := &overloadState{}
	n.peers.Put(rec, n.slotOverload, st)
	return st
}

// overloadFor is the read-only lookup: nil when the peer has no record
// or no overload state.
func (n *Node) overloadFor(x id.ID) *overloadState {
	rec := n.peers.Lookup(x)
	if rec == nil {
		return nil
	}
	st, _ := rec.Get(n.slotOverload).(*overloadState)
	return st
}

// clearSlot empties the peer's slot if it holds a value.
func (n *Node) clearSlot(x id.ID, s peer.Slot) {
	if rec := n.peers.Lookup(x); rec != nil && rec.Get(s) != nil {
		n.peers.Put(rec, s, nil)
	}
}

// Peers returns the node's per-peer state registry. Transports and upper
// layers subscribe to eviction broadcasts here; telemetry and tests read
// cardinality.
func (n *Node) Peers() *peer.Registry { return n.peers }

// PeerStats snapshots the registry's cardinality and prune economics; a
// live node exports them as the mspastry_peers_* gauges. Kept out of
// Counters on purpose: the fixed-seed report golden prints Counters whole,
// so a field added there would change it.
func (n *Node) PeerStats() peer.Stats { return n.peers.Stats() }
