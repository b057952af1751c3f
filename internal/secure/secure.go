// Package secure is secure routing as a layer over an MSPastry node
// (layer.go) and its statistics: an id-space density estimator and the
// routing failure test of Castro et al.'s secure-routing line of work (see
// also "Our Brothers' Keepers: Secure Routing with High Performance" and
// "Spartan: Sparse Robust Addressable Networks").
//
// The core observation: node identifiers are assigned uniformly at
// random (and, in a deployment, certified — an attacker controls only
// the identifiers of the nodes it actually owns). Around any point of
// the ring, the mean gap between consecutive live nodes is therefore
// ring/N. A lookup that really reached the key's root comes back with a
// leaf set about as dense as the origin's own neighbourhood; a lookup
// captured by colluders comes back with a neighbourhood drawn from only
// the f·N malicious nodes, whose mean gap is ~1/f times larger. The
// failure test compares the two densities and flags statistically
// implausible results as suspected misroutes.
//
// The statistics are pure: every function is deterministic in its inputs,
// so the same code serves the simulator, live nodes and table-driven
// tests.
package secure

import (
	"fmt"
	"sort"

	"mspastry/internal/id"
)

// ringSize is 2^128 as a float64; gaps are measured as float64 fractions
// of it. The precision loss (identifiers have 128 bits, float64 has 53)
// is irrelevant for density statistics.
const ringSize = 3.402823669209385e38

// toFloat converts a ring distance to float64.
func toFloat(x id.ID) float64 {
	return float64(x.Hi)*18446744073709551616.0 + float64(x.Lo)
}

// The failure test's thresholds, tuned for a near-zero false-positive
// rate on honest networks.
const (
	// densityRatio is the suspicion threshold γ: a reported root
	// neighbourhood whose mean inter-node gap exceeds γ× the locally
	// estimated gap fails the test. With f·N colluders the forged
	// neighbourhood is ~1/f times sparser than the truth, so any γ well
	// below 1/f catches it; honest reports concentrate near ratio 1, and
	// sample means of ~16 exponential gaps essentially never differ by 4×.
	densityRatio = 4
	// distanceRatio is the root-distance threshold δ: a claimed root
	// farther than δ× the local mean gap from the key fails the test.
	// For an honest root the distance is exponential with mean gap/2, so
	// the false-positive probability is ~e^(-2δ).
	distanceRatio = 8
)

// Verdict is the outcome of the routing failure test.
type Verdict int

const (
	// Pass: the report is consistent with the locally observed id-space
	// density (or no local estimate exists, in which case the test
	// abstains rather than guess).
	Pass Verdict = iota
	// CloserMember: the reported leaf set itself contains a node closer
	// to the key than the claimed root — self-incriminating, the
	// responder cannot be the root.
	CloserMember
	// Sparse: the reported neighbourhood is implausibly sparse compared
	// to the local density estimate (the colluders-only signature).
	Sparse
	// FarRoot: the claimed root is implausibly far from the key.
	FarRoot
)

func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case CloserMember:
		return "closer-member"
	case Sparse:
		return "sparse"
	case FarRoot:
		return "far-root"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Suspicious reports whether the verdict flags a suspected misroute.
func (v Verdict) Suspicious() bool { return v != Pass }

// MeanGap estimates the local id-space density of a neighbourhood: the
// mean clockwise gap between consecutive distinct members, with the
// single largest gap dropped — that gap is the arc of the ring the
// neighbourhood does not cover, not evidence about its density. For a
// set that wraps the whole ring the dropped gap is an ordinary one,
// which slightly underestimates; at the tiny populations where leaf
// sets wrap, that bias is harmless. It reports ok=false when fewer than
// two distinct identifiers are present (no gap to measure).
func MeanGap(ids []id.ID) (gap float64, ok bool) {
	distinct := make([]id.ID, 0, len(ids))
	seen := make(map[id.ID]bool, len(ids))
	for _, x := range ids {
		if !seen[x] {
			seen[x] = true
			distinct = append(distinct, x)
		}
	}
	if len(distinct) < 2 {
		return 0, false
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i].Less(distinct[j]) })
	n := len(distinct)
	gaps := make([]float64, n)
	largest := 0
	for i := range distinct {
		next := distinct[(i+1)%n]
		gaps[i] = toFloat(distinct[i].Clockwise(next))
		if gaps[i] > gaps[largest] {
			largest = i
		}
	}
	// n gaps around the ring; drop the largest (the uncovered arc).
	// Summed explicitly rather than as sum−largest: the uncovered arc can
	// be ~2^75 times the covered gaps, so subtracting it from the total
	// would cancel them out of float64 entirely.
	var sum float64
	for i, g := range gaps {
		if i != largest {
			sum += g
		}
	}
	return sum / float64(n-1), true
}

// Report is one lookup completion to test: the claimed root, its
// reported leaf set and the key that was looked up. On the wire (a
// KindReport payload) it carries the lookup's sequence number Seq, and
// Root is the sender.
type Report struct {
	Seq    uint64
	Key    id.ID
	Root   id.ID
	Leaves []id.ID
}

// Check runs the routing failure test against the local density
// estimate localGap (the origin's mean inter-node gap; see Estimator).
// A non-positive localGap means the origin has no estimate — a tiny or
// just-bootstrapped network — and the test abstains with Pass: a test
// that cannot tell honest from forged must not fail honest nodes.
//
// minLeaves is the smallest plausible reported leaf-set size: Pastry
// leaf sets have constant capacity L, so on a ring dense enough to fill
// the origin's own leaf set, every honest root's is full too. A report
// with fewer distinct leaves fails regardless of its gaps — this is the
// sharpest density signal of all when the colluder population is smaller
// than L, because the forger cannot name more distinct certified
// identifiers than it controls. Callers derive it from their own
// leaf-set occupancy; zero disables the check.
func Check(rep Report, localGap float64, minLeaves int) Verdict {
	for _, l := range rep.Leaves {
		if l != rep.Root && id.CloserToKey(rep.Key, l, rep.Root) {
			return CloserMember
		}
	}
	if localGap <= 0 {
		return Pass
	}
	if minLeaves > 0 {
		distinct := make(map[id.ID]bool, len(rep.Leaves))
		for _, l := range rep.Leaves {
			if l != rep.Root {
				distinct[l] = true
			}
		}
		if len(distinct) < minLeaves {
			return Sparse
		}
	}
	ids := make([]id.ID, 0, len(rep.Leaves)+1)
	ids = append(ids, rep.Root)
	ids = append(ids, rep.Leaves...)
	repGap, ok := MeanGap(ids)
	if !ok {
		// The root reported no neighbours at all while we observe a
		// populated ring: a believed-singleton answering for a key on a
		// ring we know has other nodes is implausible.
		return Sparse
	}
	if repGap > densityRatio*localGap {
		return Sparse
	}
	if toFloat(rep.Key.Distance(rep.Root)) > distanceRatio*localGap {
		return FarRoot
	}
	return Pass
}

// Estimator blends the origin's own leaf-set density with an EWMA over
// the neighbourhood gaps of previously accepted lookups, giving the
// failure test more samples than one leaf set provides. Only reports
// that passed the test may feed Observe, so an attacker cannot directly
// inflate the estimate: a forged gap large enough to matter fails the
// test before it is ever observed.
type Estimator struct {
	ewma    float64
	samples int
}

// ewmaAlpha weights each accepted observation; ~20 observations carry
// most of the estimate.
const ewmaAlpha = 0.1

// Observe feeds the mean gap of one accepted lookup report.
func (e *Estimator) Observe(gap float64) {
	if gap <= 0 {
		return
	}
	if e.samples == 0 {
		e.ewma = gap
	} else {
		e.ewma += ewmaAlpha * (gap - e.ewma)
	}
	e.samples++
}

// Blend combines the caller's current leaf-set gap with the lookup
// history: the two estimates are averaged once history exists. Either
// source alone may be unavailable (empty leaf set, no accepted lookups
// yet); Blend returns whatever evidence there is, or 0 for none.
func (e *Estimator) Blend(leafGap float64) float64 {
	switch {
	case e.samples == 0:
		return leafGap
	case leafGap <= 0:
		return e.ewma
	default:
		return (leafGap + e.ewma) / 2
	}
}
