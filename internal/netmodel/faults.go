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

// linkKey identifies a directed endpoint pair for per-link loss.
type linkKey struct{ from, to string }

// FaultSet is the mutable fault state of a Network plus schedulers that
// arm and disarm faults at virtual times. The zero state injects nothing;
// obtain one with Network.Faults. All mutation must happen inside
// simulator events (the simulator is single-threaded).
type FaultSet struct {
	nw *Network

	// partition, when non-nil, splits endpoints into two sides; messages
	// whose endpoints map to different sides are dropped. The predicate is
	// evaluated per message, so endpoints created mid-partition are
	// covered.
	partition func(addr string) bool

	// linkLoss holds per-directed-link injected loss probabilities.
	linkLoss map[linkKey]float64

	// jitterMax adds a uniform random extra delay in [0, jitterMax] to
	// every delivered message.
	jitterMax time.Duration

	// spikeExtra adds a fixed extra delay to every delivered message (a
	// delay spike: the false-positive inducer for aggressive
	// retransmission timers).
	spikeExtra time.Duration

	// dupProb duplicates a delivered message with this probability; the
	// copy takes an independently perturbed delay.
	dupProb float64

	// reorderProb holds a delivered message back by a uniform random extra
	// delay in (0, reorderMax] with this probability, letting
	// later-sent messages overtake it (bounded reordering).
	reorderProb float64
	reorderMax  time.Duration
}

// Faults returns the network's fault set, creating it on first use.
func (nw *Network) Faults() *FaultSet {
	if nw.faults == nil {
		nw.faults = &FaultSet{nw: nw}
	}
	return nw.faults
}

// ---- immediate setters ----

// SetPartition splits the network: endpoints for which sideA returns true
// cannot exchange messages with the rest. Passing nil heals the partition.
// Only one partition is active at a time; setting a new one replaces the
// old.
func (f *FaultSet) SetPartition(sideA func(addr string) bool) {
	f.partition = sideA
}

// SetLinkLoss injects loss probability rate on the directed link from →
// to (endpoint addresses). Rate 0 removes the rule. Asymmetric loss is
// expressed by setting only one direction.
func (f *FaultSet) SetLinkLoss(from, to string, rate float64) {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("netmodel: link loss rate %v outside [0,1)", rate))
	}
	if rate == 0 {
		delete(f.linkLoss, linkKey{from, to})
		return
	}
	if f.linkLoss == nil {
		f.linkLoss = make(map[linkKey]float64)
	}
	f.linkLoss[linkKey{from, to}] = rate
}

// SetJitter adds a uniform random extra delay in [0, max] to every
// message. Zero disables jitter.
func (f *FaultSet) SetJitter(max time.Duration) {
	if max < 0 {
		panic("netmodel: negative jitter")
	}
	f.jitterMax = max
}

// SetDelaySpike adds a fixed extra delay to every message. Zero ends the
// spike.
func (f *FaultSet) SetDelaySpike(extra time.Duration) {
	if extra < 0 {
		panic("netmodel: negative delay spike")
	}
	f.spikeExtra = extra
}

// SetDuplication duplicates each delivered message with probability p.
func (f *FaultSet) SetDuplication(p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("netmodel: duplication probability %v outside [0,1)", p))
	}
	f.dupProb = p
}

// SetReordering holds each delivered message back by a random extra delay
// in (0, maxExtra] with probability p, so later messages can overtake it.
func (f *FaultSet) SetReordering(p float64, maxExtra time.Duration) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("netmodel: reordering probability %v outside [0,1)", p))
	}
	if p > 0 && maxExtra <= 0 {
		panic("netmodel: reordering needs a positive maxExtra")
	}
	f.reorderProb = p
	f.reorderMax = maxExtra
}

// ---- timed schedulers ----
// Each arms the fault at virtual time start and disarms it duration
// later (duration <= 0 leaves the fault active until cleared manually).

// PartitionAt schedules a partition with a timed heal.
func (f *FaultSet) PartitionAt(start, duration time.Duration, sideA func(addr string) bool) {
	f.at(start, duration,
		func() { f.SetPartition(sideA) },
		func() { f.SetPartition(nil) })
}

// LinkLossAt schedules per-link loss on from → to.
func (f *FaultSet) LinkLossAt(start, duration time.Duration, from, to string, rate float64) {
	f.at(start, duration,
		func() { f.SetLinkLoss(from, to, rate) },
		func() { f.SetLinkLoss(from, to, 0) })
}

// JitterAt schedules a jitter window.
func (f *FaultSet) JitterAt(start, duration, max time.Duration) {
	f.at(start, duration,
		func() { f.SetJitter(max) },
		func() { f.SetJitter(0) })
}

// DelaySpikeAt schedules a delay-spike window.
func (f *FaultSet) DelaySpikeAt(start, duration, extra time.Duration) {
	f.at(start, duration,
		func() { f.SetDelaySpike(extra) },
		func() { f.SetDelaySpike(0) })
}

// DuplicationAt schedules a duplication window.
func (f *FaultSet) DuplicationAt(start, duration time.Duration, p float64) {
	f.at(start, duration,
		func() { f.SetDuplication(p) },
		func() { f.SetDuplication(0) })
}

// ReorderingAt schedules a reordering window.
func (f *FaultSet) ReorderingAt(start, duration time.Duration, p float64, maxExtra time.Duration) {
	f.at(start, duration,
		func() { f.SetReordering(p, maxExtra) },
		func() { f.SetReordering(0, 0) })
}

func (f *FaultSet) at(start, duration time.Duration, arm, disarm func()) {
	f.nw.sim.At(start, arm)
	if duration > 0 {
		f.nw.sim.At(start+duration, disarm)
	}
}

// ---- send-path hooks ----

// dropsMessage rolls the loss-like faults for one message and returns the
// cause if it must be dropped.
func (f *FaultSet) dropsMessage(rng *rand.Rand, from, to string) (DropCause, bool) {
	if f.partition != nil && f.partition(from) != f.partition(to) {
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
	delay += f.spikeExtra
	if f.jitterMax > 0 {
		delay += time.Duration(rng.Int63n(int64(f.jitterMax) + 1))
	}
	if f.reorderProb > 0 && rng.Float64() < f.reorderProb {
		f.nw.FaultCounts.Reordered++
		delay += 1 + time.Duration(rng.Int63n(int64(f.reorderMax)))
	}
	return delay
}

// duplicates rolls the duplication fault.
func (f *FaultSet) duplicates(rng *rand.Rand) bool {
	if f.dupProb > 0 && rng.Float64() < f.dupProb {
		f.nw.FaultCounts.Duplicated++
		return true
	}
	return false
}
