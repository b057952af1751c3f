package pastry

import (
	"math"
	"time"

	"mspastry/internal/peer"
)

// This file implements the self-tuning of the routing-table probing period
// (paper §4.1). The raw loss rate — the probability that a message meets a
// faulty node along its route in the absence of acks and retransmissions —
// is
//
//	Lr = 1 - (1-Pf(Tls+(r+1)To, mu)) * (1-Pf(Trt+(r+1)To, mu))^(h-1)
//
// where Pf(T, mu) = 1 - (1 - e^(-T*mu)) / (T*mu) is the probability of
// forwarding to a faulty node when faults take at most T to detect and
// nodes fail at rate mu, and h = (2^b-1)/2^b * log_2^b(N) is the expected
// number of overlay hops. Each node estimates N from the density of its
// leaf set and mu from its recent failure history, solves for the Trt that
// hits the target Lr, and adopts the median of the estimates advertised by
// its routing-state peers.

// pFaulty is Pf(T, mu): the probability that a next hop chosen uniformly
// among nodes failing at rate mu is already dead, when failures take at
// most T seconds to detect.
func pFaulty(T, mu float64) float64 {
	x := T * mu
	if x <= 0 {
		return 0
	}
	if x > 700 {
		return 1
	}
	return 1 - (1-math.Exp(-x))/x
}

// rawLossRate computes Lr for the given parameters. tls, trt and to are in
// seconds; mu in failures per node per second; hops is the expected route
// length (>= 1; the last hop uses the leaf set).
func rawLossRate(tls, trt, to, mu, hops float64, retries int) float64 {
	detect := float64(retries+1) * to
	pLeaf := pFaulty(tls+detect, mu)
	if hops <= 1 {
		return pLeaf
	}
	pRT := pFaulty(trt+detect, mu)
	return 1 - (1-pLeaf)*math.Pow(1-pRT, hops-1)
}

// expectedHops returns the paper's expected route length
// (2^b-1)/2^b * log_2^b(N), floored at 1.
func expectedHops(n float64, b int) float64 {
	if n < 2 {
		return 1
	}
	base := float64(int(1) << b)
	h := (base - 1) / base * (math.Log(n) / math.Log(base))
	if h < 1 {
		return 1
	}
	return h
}

// solveTrt finds the largest Trt (seconds) whose predicted raw loss rate
// stays at or below target. Monotonicity: Lr grows with Trt, so bisection
// applies. Returns maxTrt when even the maximum satisfies the target, and
// the lower bound when no Trt can reach it.
func solveTrt(target, tls, to, mu, hops float64, retries int, minTrtSec, maxTrtSec float64) float64 {
	if rawLossRate(tls, maxTrtSec, to, mu, hops, retries) <= target {
		return maxTrtSec
	}
	if rawLossRate(tls, minTrtSec, to, mu, hops, retries) >= target {
		return minTrtSec
	}
	lo, hi := minTrtSec, maxTrtSec
	for i := 0; i < 60 && hi-lo > 0.01; i++ {
		mid := (lo + hi) / 2
		if rawLossRate(tls, mid, to, mu, hops, retries) <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// recordFailure appends a failure observation to the bounded history used
// by the failure-rate estimator. The node's own join time seeds the
// history so young nodes do not produce wild estimates.
func (n *Node) recordFailure(at time.Duration) {
	if len(n.failureHist) == 0 {
		n.failureHist = append(n.failureHist, n.joinStart)
	}
	n.failureHist = append(n.failureHist, at)
	if len(n.failureHist) > failureHistoryK {
		n.failureHist = n.failureHist[len(n.failureHist)-failureHistoryK:]
	}
}

// estimateN estimates the overlay size from leaf-set density: the leaf set
// holds Size() nodes in SpanFraction() of the ring.
func (n *Node) estimateN() float64 {
	span := n.ls.SpanFraction()
	size := float64(n.ls.Size())
	if span <= 0 || size == 0 {
		return size + 1
	}
	est := size / span
	if est < size+1 {
		est = size + 1
	}
	return est
}

// estimateMu estimates the per-node failure rate from the failure history:
// k failures among M monitored nodes over the history's time span. With a
// short history the current time acts as a virtual last failure, as in the
// paper.
func (n *Node) estimateMu(now time.Duration) float64 {
	m := n.monitoredNodes()
	if m == 0 {
		return 0
	}
	hist := n.failureHist
	if len(hist) == 0 {
		hist = []time.Duration{n.joinStart}
	}
	var k float64
	var span time.Duration
	if len(hist) >= failureHistoryK {
		k = float64(len(hist) - 1)
		span = hist[len(hist)-1] - hist[0]
	} else {
		k = float64(len(hist))
		span = now - hist[0]
	}
	if span <= 0 {
		return 0
	}
	return k / (float64(m) * span.Seconds())
}

// monitoredNodes counts the unique nodes in the routing state — by
// address: two incarnations of one endpoint are one monitored node.
func (n *Node) monitoredNodes() int {
	unique := n.addrScratch
	clear(unique)
	n.rt.each(func(e NodeRef) { unique[e.Addr] = struct{}{} })
	for _, e := range n.ls.Members() {
		unique[e.Addr] = struct{}{}
	}
	return len(unique)
}

// retune recomputes the local Trt estimate and adopts the median of the
// local value and the peers' advertised values, bounded below by
// (retries+1)*To.
func (n *Node) retune(now time.Duration) {
	mu := n.estimateMu(now)
	est := n.estimateN()
	hops := expectedHops(est, n.cfg.B)
	minSec := n.cfg.MinTrt().Seconds()
	maxSec := maxTrt.Seconds()
	var local float64
	if mu <= 0 {
		local = maxSec
	} else {
		local = solveTrt(n.cfg.TargetRawLoss, n.cfg.Tls.Seconds(), n.cfg.To.Seconds(),
			mu, hops, maxProbeRetries, minSec, maxSec)
	}
	n.trtLocal = time.Duration(local * float64(time.Second))
	vals := append(n.trtScratch[:0], n.trtLocal)
	n.peers.Each(func(rec *peer.Record) {
		if rec.Get(n.slotHint) != nil {
			vals = append(vals, rec.State.TrtHint)
		}
	})
	n.trtScratch = vals[:0]
	n.trtCurrent = min(max(medianDuration(vals), n.cfg.MinTrt()), maxTrt)
	if n.sobs != nil {
		n.sobs.TrtTuned(n, n.trtCurrent)
	}
}
