// Fault injection: scheduled adversarial network conditions composed on
// top of the base delay/loss pipeline. The paper's dependability claim
// ("never deliver at a wrong root ... provided there are no false
// positives") is only testable under the conditions that *cause* false
// positives — delay spikes, partitions, reordered and duplicated packets —
// none of which uniform i.i.d. loss can produce. Every fault draws its
// randomness from the simulator's seeded source, so scenarios are fully
// deterministic: the same seed yields the same packet fates.
package netmodel

import (
	"fmt"
	"math/rand"
	"time"
)

// DropCause classifies why the network did not deliver a message.
type DropCause int

const (
	// DropLoss is the base uniform injected loss.
	DropLoss DropCause = iota
	// DropLinkLoss is injected per-link (asymmetric) loss.
	DropLinkLoss
	// DropPartition means sender and destination were on opposite sides of
	// an active network partition.
	DropPartition
	// DropUnknownEndpoint means no endpoint exists with the destination
	// address.
	DropUnknownEndpoint
	// DropDeadEndpoint means the destination endpoint had failed by
	// delivery time.
	DropDeadEndpoint
	// DropStaleIdentity means the destination endpoint was reincarnated
	// with a new node identity; the message was addressed to the dead
	// instance.
	DropStaleIdentity
	// DropOverload means the destination's bounded service queue shed the
	// message (or a lower-priority one to admit it); see ServiceModel.
	DropOverload
	// DropAdversary means a malicious node consumed the message: a
	// Byzantine peer dropped a transit lookup or captured it with a
	// forged root claim (see Adversary).
	DropAdversary
	// NumDropCauses sizes dense per-cause arrays.
	NumDropCauses
)

func (c DropCause) String() string {
	switch c {
	case DropLoss:
		return "loss"
	case DropLinkLoss:
		return "linkloss"
	case DropPartition:
		return "partition"
	case DropUnknownEndpoint:
		return "unknown-endpoint"
	case DropDeadEndpoint:
		return "dead-endpoint"
	case DropStaleIdentity:
		return "stale-identity"
	case DropOverload:
		return "overload"
	case DropAdversary:
		return "adversary"
	default:
		return fmt.Sprintf("DropCause(%d)", int(c))
	}
}

// injected reports whether the cause is an injected fault (as opposed to a
// churn artifact: the destination being unknown, dead or reincarnated).
// Adversarial consumption is injected: the experiment configured it.
func (c DropCause) injected() bool {
	return c == DropLoss || c == DropLinkLoss || c == DropPartition || c == DropAdversary
}

// FaultCounters tallies fault-injection activity on a Network.
type FaultCounters struct {
	// Duplicated counts extra copies injected by message duplication.
	Duplicated uint64
	// Reordered counts messages that were held back past their natural
	// delivery time by the reordering fault.
	Reordered uint64
}

// Fault is one set of adversarial network conditions, armed for a window
// by FaultSet.At. Every zero field injects nothing, and only the effects a
// Fault sets are armed and later disarmed, so windows of different kinds
// compose freely. Within one kind the last window armed wins, and the end
// of any window of that kind disarms it: a spike of 1 s over [0, 60 s) and
// one of 2 s over [30 s, 90 s) read 1 s, then 2 s, then nothing from 60 s
// on. Link loss is one kind per directed link.
type Fault struct {
	// Partition, when non-nil, splits endpoints into two sides: messages
	// whose endpoints map to different sides are dropped. The predicate is
	// evaluated per message, so endpoints created mid-partition are
	// covered.
	Partition func(addr string) bool

	// LinkLoss drops messages on the directed link From → To (endpoint
	// addresses) with this probability. Asymmetric loss sets only one
	// direction.
	From, To string
	LinkLoss float64

	// Spike adds a fixed extra delay to every message (the false-positive
	// inducer for aggressive retransmission timers).
	Spike time.Duration

	// Jitter adds a uniform random extra delay in [0, Jitter] to every
	// message.
	Jitter time.Duration

	// Duplicate duplicates a delivered message with this probability; the
	// copy takes an independently perturbed delay.
	Duplicate float64

	// Reorder holds a delivered message back by a uniform random extra
	// delay in (0, ReorderMax] with this probability, letting later-sent
	// messages overtake it (bounded reordering).
	Reorder    float64
	ReorderMax time.Duration
}

// check panics, naming the field, on a window At cannot arm.
func (ft Fault) check(dur time.Duration) {
	outside := func(p float64) bool { return p < 0 || p >= 1 }
	switch {
	case outside(ft.LinkLoss):
		panic(fmt.Sprintf("netmodel: Fault.LinkLoss %v outside [0,1)", ft.LinkLoss))
	case outside(ft.Duplicate):
		panic(fmt.Sprintf("netmodel: Fault.Duplicate %v outside [0,1)", ft.Duplicate))
	case outside(ft.Reorder):
		panic(fmt.Sprintf("netmodel: Fault.Reorder %v outside [0,1)", ft.Reorder))
	case ft.Spike < 0:
		panic(fmt.Sprintf("netmodel: negative Fault.Spike %v", ft.Spike))
	case ft.Jitter < 0:
		panic(fmt.Sprintf("netmodel: negative Fault.Jitter %v", ft.Jitter))
	case ft.Reorder > 0 && ft.ReorderMax <= 0:
		panic(fmt.Sprintf("netmodel: Fault.Reorder needs a positive Fault.ReorderMax, got %v", ft.ReorderMax))
	case dur <= 0:
		panic(fmt.Sprintf("netmodel: fault window dur %v, want > 0", dur))
	}
}

// linkKey identifies a directed endpoint pair for per-link loss.
type linkKey struct{ from, to string }

// FaultSet is the fault state of a Network. The zero state injects
// nothing; obtain one with Network.Faults and arm faults with At.
type FaultSet struct {
	nw *Network

	// armed holds the effects in force, link loss aside.
	armed Fault

	// linkLoss holds per-directed-link injected loss probabilities.
	linkLoss map[linkKey]float64
}

// Faults returns the network's fault set, creating it on first use.
func (nw *Network) Faults() *FaultSet {
	if nw.faults == nil {
		nw.faults = &FaultSet{nw: nw, linkLoss: make(map[linkKey]float64)}
	}
	return nw.faults
}

// At arms every effect ft sets at virtual time start, even when start is
// now, and disarms those effects at start+dur. It panics, naming the
// field, on a probability outside [0,1), a negative Spike or Jitter, a
// Reorder without a positive ReorderMax, or a dur that is not positive.
func (f *FaultSet) At(start, dur time.Duration, ft Fault) {
	ft.check(dur)
	f.nw.sim.At(start, func() { f.toggle(ft, true) })
	f.nw.sim.At(start+dur, func() { f.toggle(ft, false) })
}

// toggle arms (on) or disarms every effect ft sets.
func (f *FaultSet) toggle(ft Fault, on bool) {
	src := ft
	if !on {
		src = Fault{}
	}
	a := &f.armed
	if ft.Partition != nil {
		a.Partition = src.Partition
	}
	if ft.LinkLoss > 0 {
		if k := (linkKey{ft.From, ft.To}); on {
			f.linkLoss[k] = ft.LinkLoss
		} else {
			delete(f.linkLoss, k) // not zeroed: a zero-probability entry still draws
		}
	}
	if ft.Spike > 0 {
		a.Spike = src.Spike
	}
	if ft.Jitter > 0 {
		a.Jitter = src.Jitter
	}
	if ft.Duplicate > 0 {
		a.Duplicate = src.Duplicate
	}
	if ft.Reorder > 0 {
		a.Reorder, a.ReorderMax = src.Reorder, src.ReorderMax
	}
}

// ---- send-path hooks ----

// dropsMessage rolls the loss-like faults for one message and returns the
// cause if it must be dropped.
func (f *FaultSet) dropsMessage(rng *rand.Rand, from, to string) (DropCause, bool) {
	if side := f.armed.Partition; side != nil && side(from) != side(to) {
		return DropPartition, true
	}
	if p, ok := f.linkLoss[linkKey{from, to}]; ok && rng.Float64() < p {
		return DropLinkLoss, true
	}
	return 0, false
}

// perturbDelay applies the delay-shaped faults (spike, jitter, reordering)
// to a message's one-way delay.
func (f *FaultSet) perturbDelay(rng *rand.Rand, delay time.Duration) time.Duration {
	a := &f.armed
	delay += a.Spike
	if a.Jitter > 0 {
		delay += time.Duration(rng.Int63n(int64(a.Jitter) + 1))
	}
	if a.Reorder > 0 && rng.Float64() < a.Reorder {
		f.nw.FaultCounts.Reordered++
		delay += 1 + time.Duration(rng.Int63n(int64(a.ReorderMax)))
	}
	return delay
}

// duplicates rolls the duplication fault.
func (f *FaultSet) duplicates(rng *rand.Rand) bool {
	if p := f.armed.Duplicate; p > 0 && rng.Float64() < p {
		f.nw.FaultCounts.Duplicated++
		return true
	}
	return false
}
