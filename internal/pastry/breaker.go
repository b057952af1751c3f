package pastry

import (
	"time"

	"mspastry/internal/id"
	"mspastry/internal/overload"
	"mspastry/internal/peer"
)

// Per-peer circuit breakers and retry budgets (overload protection).
//
// Both the failure and the success signal are per-hop acks: a missed
// ack (hopTimeout) is a strike, an ack closes the breaker. Acks are the
// only signal that tracks whether a peer is actually servicing routed
// traffic — an overloaded node still answers lightweight probes
// promptly (liveness traffic rides the highest-priority lane precisely
// so that overload does not look like death), so probe replies MUST NOT
// close a breaker: that would reopen the floodgates onto a peer that is
// alive but drowning, and the breaker would flap on every
// timeout/probe-reply pair.
//
// BreakerThreshold consecutive misses open the breaker: the peer is
// excluded from next-hop selection immediately (fast-fail), so lookups
// re-route around it instead of burning a retransmission timeout per
// message. When the cooldown expires the breaker goes half-open (lazily,
// at the next routing decision that considers the peer) and regular
// traffic is admitted again as the trial: an ack closes the breaker, a
// missed ack reopens it with a doubled cooldown, up to breakerMaxCooldown.
// The regular failure detector keeps running independently — probes
// still flow while the breaker is open — so a genuinely dead peer is
// still marked faulty and handed to the reconnect cache through the
// usual machinery; marking faulty clears the breaker record.
//
// The retry budget is a per-peer token bucket charged only for repeat
// sends to the same peer: backed-off per-hop retransmissions and probe
// retries. First transmissions and re-routes to other peers are free, so
// exhausting a peer's budget redirects pressure rather than losing work.

// breakerDenies reports whether the peer's circuit is open, so regular
// traffic must route around it. An open breaker whose cooldown has
// expired transitions to half-open here — admitting this very routing
// decision as the recovery trial.
func (n *Node) breakerDenies(x id.ID) bool {
	if n.cfg.BreakerThreshold <= 0 || n.peers.SlotCount(n.slotOverload) == 0 {
		return false
	}
	st := n.overloadFor(x)
	if st == nil || st.breaker == nil {
		return false
	}
	if st.breaker.Ready(n.env.Now()) {
		st.breaker.HalfOpen()
	}
	return st.breaker.Denies()
}

// breakerFailure records a missed per-hop ack against the peer.
func (n *Node) breakerFailure(ref NodeRef) {
	if n.cfg.BreakerThreshold <= 0 {
		return
	}
	b := n.breakerOf(ref)
	wasHalfOpen := b.State() == overload.BreakerHalfOpen
	if b.Failure(n.env.Now()) {
		if wasHalfOpen {
			n.counters.BreakerReopens++
		} else {
			n.counters.BreakerOpens++
		}
	}
}

// breakerOf returns the peer's circuit breaker, creating it closed on
// first use.
func (n *Node) breakerOf(ref NodeRef) *overload.Breaker {
	st := n.overloadOf(n.peers.Obtain(ref.ID, ref.Addr, n.env.Now()))
	if st.breaker == nil {
		st.breaker = &overload.Breaker{
			Threshold:   n.cfg.BreakerThreshold,
			Cooldown:    n.cfg.breakerCooldown,
			MaxCooldown: n.cfg.breakerMaxCooldown,
		}
	}
	return st.breaker
}

// breakerSuccess records direct evidence the peer is servicing routed
// traffic — a per-hop ack, and only that (see the package comment on
// why probe replies do not qualify). sentAt is when the acked hop was
// transmitted: the breaker discards acks for hops sent before it last
// opened, so straggling pre-storm acks cannot close it.
func (n *Node) breakerSuccess(x id.ID, sentAt time.Duration) {
	if n.peers.SlotCount(n.slotOverload) == 0 {
		return
	}
	st := n.overloadFor(x)
	if st == nil || st.breaker == nil {
		return
	}
	if st.breaker.Success(sentAt) {
		n.counters.BreakerCloses++
	}
}

// dropBreaker discards the peer's breaker and budget state; called when
// the peer is marked faulty (the reconnect cache owns it from there) and
// from eviction paths.
func (n *Node) dropBreaker(x id.ID) {
	n.clearSlot(x, n.slotOverload)
}

// retryAllowed charges one token from the peer's retry budget, reporting
// whether the repeat send may proceed. With budgets disabled it always
// allows.
func (n *Node) retryAllowed(ref NodeRef) bool {
	if n.cfg.RetryBudgetRate <= 0 {
		return true
	}
	now := n.env.Now()
	st := n.overloadOf(n.peers.Obtain(ref.ID, ref.Addr, now))
	if st.budget == nil {
		st.budget = overload.NewTokenBucket(n.cfg.RetryBudgetRate, float64(n.cfg.RetryBudgetBurst), now)
	}
	if !st.budget.Take(now) {
		n.counters.RetryBudgetExhausted++
		return false
	}
	return true
}

// inRoutingState reports whether the peer can currently be chosen as a
// next hop: it is in the leaf set or the routing table.
func (n *Node) inRoutingState(x id.ID) bool {
	return n.ls.Contains(x) || n.rt.Contains(x)
}

// Distrust feeds a peer an application layer found lying (the secure
// layer's vote, internal/secure) into the routing-exclusion machinery: the
// peer is excluded from next-hop selection and its circuit breaker is
// force-opened, so recovery follows the ordinary cooldown/half-open path
// rather than being permanent — the evidence is statistical, and an honest
// peer caught by a rare false vote must be able to come back. It reports
// false, doing nothing, for this node itself and for a peer already marked
// faulty.
func (n *Node) Distrust(ref NodeRef) bool {
	if _, dead := n.failed[ref.ID]; dead || ref.ID == n.self.ID || !n.alive {
		return false
	}
	n.excluded[ref.ID] = true
	// Hand the exclusion record to the regular probe machinery so it has
	// an owner: a probe reply lifts it (the breaker keeps denying through
	// its cooldown), a probe timeout marks the peer faulty outright.
	n.suspect(ref)
	if n.cfg.BreakerThreshold > 0 {
		b := n.breakerOf(ref)
		wasOpen := b.Denies()
		b.Trip(n.env.Now())
		if !wasOpen {
			n.counters.BreakerOpens++
		}
	}
	return true
}

// BreakerSummary counts this node's peer circuit breakers by state.
type BreakerSummary struct {
	Open     int `json:"open"`
	HalfOpen int `json:"half_open"`
	Tripping int `json:"tripping"` // closed but with recorded strikes
}

// Breakers returns a snapshot of breaker states for status reporting.
func (n *Node) Breakers() BreakerSummary {
	var s BreakerSummary
	n.peers.Each(func(rec *peer.Record) {
		st, _ := rec.Get(n.slotOverload).(*overloadState)
		if st == nil || st.breaker == nil {
			return
		}
		switch st.breaker.State() {
		case overload.BreakerOpen:
			s.Open++
		case overload.BreakerHalfOpen:
			s.HalfOpen++
		default:
			s.Tripping++
		}
	})
	return s
}
