package pastry

import (
	"slices"
	"time"
)

// rttEstimator tracks smoothed round-trip time and variance per peer, in
// the style of TCP (Karn & Partridge / Jacobson), but computes the
// retransmission timeout more aggressively than TCP: MSPastry can afford
// early retransmissions because Pastry offers several alternative next hops
// for a key, so a false timeout costs little (paper §3.2).
type rttEstimator struct {
	srtt   time.Duration
	rttvar time.Duration
	init   bool
}

// observe folds one RTT sample in. Callers must apply Karn's rule: never
// feed samples from retransmitted packets.
func (e *rttEstimator) observe(sample time.Duration) {
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

// rto returns the aggressive retransmission timeout: srtt + 2*rttvar
// (TCP uses 4*rttvar), clamped to [min, max]. Before any sample it returns
// the fallback value.
func (e *rttEstimator) rto(fallback, min, max time.Duration) time.Duration {
	if !e.init {
		return clampDuration(fallback, min, max)
	}
	return clampDuration(e.srtt+2*e.rttvar, min, max)
}

func clampDuration(d, min, max time.Duration) time.Duration {
	if d < min {
		return min
	}
	if d > max {
		return max
	}
	return d
}

// medianDuration returns the median of ds (average of the two middle
// values for even lengths), sorting ds in place to find it: both callers
// are done with the sample order. It returns 0 for an empty slice.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	mid := len(ds) / 2
	if len(ds)%2 == 1 {
		return ds[mid]
	}
	return (ds[mid-1] + ds[mid]) / 2
}
