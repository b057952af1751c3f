package peer

import "time"

// State is the protocol state a node keeps for nearly every peer: the
// self-tuning hint, the probe-suppression memory and the RTT estimator.
// A record holds it inline (Record.State), so it costs no object of its
// own. A component is set while its slot holds &rec.State and unset while
// the slot is nil; the fields outlive a drained slot, so a component that
// is created assigns its whole value and never reads what a pruned one
// left behind.
type State struct {
	// TrtHint is the peer's advertised routing-table probing period, fed
	// to the self-tuning median.
	TrtHint  time.Duration
	Suppress Suppress
	RTT      RTT
}

// Suppress is probe-suppression memory: when the peer was last
// distance-probed, last probed as a leaf-set candidate, and last sent a
// leaf-set repair probe. Zero means "never" — the simulation clock is
// strictly positive whenever these are written.
type Suppress struct {
	DistProbed  time.Duration
	LSCandidate time.Duration
	LastRepair  time.Duration
}

// RTT tracks smoothed round-trip time and variance per peer, in the style
// of TCP (Karn & Partridge / Jacobson), but computes the retransmission
// timeout more aggressively than TCP: MSPastry can afford early
// retransmissions because Pastry offers several alternative next hops for
// a key, so a false timeout costs little (paper §3.2).
type RTT struct {
	srtt   time.Duration
	rttvar time.Duration
	init   bool
}

// Observe folds one RTT sample in. Callers must apply Karn's rule: never
// feed samples from retransmitted packets.
func (e *RTT) Observe(sample time.Duration) {
	if !e.init {
		e.srtt = sample
		e.rttvar = sample / 2
		e.init = true
		return
	}
	// Standard EWMA constants (alpha=1/8, beta=1/4).
	dev := e.srtt - sample
	if dev < 0 {
		dev = -dev
	}
	e.rttvar += (dev - e.rttvar) / 4
	e.srtt += (sample - e.srtt) / 8
}

// RTO returns the aggressive retransmission timeout: srtt + 2*rttvar
// (TCP uses 4*rttvar). Before any sample, or on a nil estimator, it
// returns fallback. Callers clamp it to their own bounds.
func (e *RTT) RTO(fallback time.Duration) time.Duration {
	if e == nil || !e.init {
		return fallback
	}
	return e.srtt + 2*e.rttvar
}
