package harness

import (
	"sort"
	"time"

	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/stats"
)

// FaultScript is a scriptable fault scenario: a list of timed fault
// events (partitions, jitter windows, delay spikes, duplication,
// reordering, per-link loss) interleaved with the trace's churn. Event
// times are measured times — relative to the end of the setup ramp, like
// the trace's churn events — so a scenario is independent of the ramp
// length. Build one with the fluent methods and set it on Config.Faults;
// commands and experiments script partitions and delay spikes, and the
// other kinds are unexported helpers for this package's tests.
type FaultScript struct {
	events []faultEvent
}

type faultEvent struct {
	at, dur time.Duration
	// partitionFrac > 0 marks a partition event (the recovery tracker
	// watches its heal); the other fault kinds are applied by apply.
	partitionFrac float64
	apply         func(r *run, f *netmodel.FaultSet, start time.Duration)
}

// Partition splits the overlay for dur starting at measured time at: the
// first fracA of the endpoint slots form side A, the rest side B. The
// harness tracks ring repair after the heal.
func (s *FaultScript) Partition(at, dur time.Duration, fracA float64) *FaultScript {
	if fracA <= 0 || fracA >= 1 {
		panic("harness: partition fraction must be in (0,1)")
	}
	s.events = append(s.events, faultEvent{at: at, dur: dur, partitionFrac: fracA})
	return s
}

// jitter adds a uniform random extra delay in [0, max] to every message
// for dur starting at measured time at.
func (s *FaultScript) jitter(at, dur, max time.Duration) *FaultScript {
	s.events = append(s.events, faultEvent{at: at, dur: dur,
		apply: func(r *run, f *netmodel.FaultSet, start time.Duration) {
			f.JitterAt(start, dur, max)
		}})
	return s
}

// DelaySpike adds a fixed extra delay to every message for dur starting
// at measured time at (the false-positive inducer for per-hop
// retransmission timers).
func (s *FaultScript) DelaySpike(at, dur, extra time.Duration) *FaultScript {
	s.events = append(s.events, faultEvent{at: at, dur: dur,
		apply: func(r *run, f *netmodel.FaultSet, start time.Duration) {
			f.DelaySpikeAt(start, dur, extra)
		}})
	return s
}

// duplicate duplicates messages with probability p for dur starting at
// measured time at.
func (s *FaultScript) duplicate(at, dur time.Duration, p float64) *FaultScript {
	s.events = append(s.events, faultEvent{at: at, dur: dur,
		apply: func(r *run, f *netmodel.FaultSet, start time.Duration) {
			f.DuplicationAt(start, dur, p)
		}})
	return s
}

// reorder holds messages back by up to maxExtra with probability p for
// dur starting at measured time at.
func (s *FaultScript) reorder(at, dur time.Duration, p float64, maxExtra time.Duration) *FaultScript {
	s.events = append(s.events, faultEvent{at: at, dur: dur,
		apply: func(r *run, f *netmodel.FaultSet, start time.Duration) {
			f.ReorderingAt(start, dur, p, maxExtra)
		}})
	return s
}

// linkLoss injects asymmetric loss on the directed link between two
// endpoint slots for dur starting at measured time at.
func (s *FaultScript) linkLoss(at, dur time.Duration, fromSlot, toSlot int, rate float64) *FaultScript {
	s.events = append(s.events, faultEvent{at: at, dur: dur,
		apply: func(r *run, f *netmodel.FaultSet, start time.Duration) {
			f.LinkLossAt(start, dur, r.slots[fromSlot].ep.Addr(), r.slots[toSlot].ep.Addr(), rate)
		}})
	return s
}

// window returns the measured interval spanned by the script's events.
func (s *FaultScript) window() (start, end time.Duration) {
	if len(s.events) == 0 {
		return 0, 0
	}
	start = s.events[0].at
	for _, ev := range s.events {
		if ev.at < start {
			start = ev.at
		}
		if e := ev.at + ev.dur; e > end {
			end = e
		}
	}
	return start, end
}

// recoveryPollInterval is the granularity at which the harness polls for
// global ring consistency after a fault heals.
const recoveryPollInterval = 2 * time.Second

// applyFaults schedules the script's events on the network (shifted by
// the setup ramp), declares the fault window to the collector, and arms
// recovery tracking after every partition heal.
func (r *run) applyFaults() {
	script := r.cfg.Faults
	if script == nil || len(script.events) == 0 {
		return
	}
	start, end := script.window()
	r.col.SetFaultWindow(start, end)
	f := r.nw.Faults()
	for _, ev := range script.events {
		at := r.setup + ev.at
		if ev.partitionFrac > 0 {
			cut := int(float64(len(r.slots)) * ev.partitionFrac)
			base := r.slotBase()
			sideA := func(addr string) bool { return mustAtoi(addr)-base < cut }
			f.PartitionAt(at, ev.dur, sideA)
			if ev.dur > 0 {
				r.trackRecovery(at + ev.dur)
			}
			continue
		}
		ev.apply(r, f, at)
	}
}

// trackRecovery polls for global ring consistency from the heal instant
// until the overlay repairs or the run ends, recording a RecoveryStat.
func (r *run) trackRecovery(healAt time.Duration) {
	idx := len(r.recovery)
	r.recovery = append(r.recovery, stats.RecoveryStat{HealAt: healAt - r.setup})
	var poll func()
	poll = func() {
		if r.ringConsistent() {
			r.recovery[idx].Repaired = true
			r.recovery[idx].RepairedAt = r.measured()
			return
		}
		// The outage lasts until the overlay has re-converged: keep the
		// "during" phase open (at poll granularity) so lookups issued while
		// the ring is still damaged are not attributed to "after".
		r.col.ExtendFaultWindow(r.measured() + recoveryPollInterval)
		r.sim.After(recoveryPollInterval, poll)
	}
	r.sim.At(healAt, poll)
}

// ringConsistent applies RingConsistent to the ground-truth active set.
func (r *run) ringConsistent() bool {
	nodes := make([]*pastry.Node, 0, r.active.len())
	for _, e := range r.active.entries {
		node := r.slots[e.slot].node
		if node == nil {
			return false
		}
		nodes = append(nodes, node)
	}
	return RingConsistent(nodes)
}

// RingConsistent is the §3.1 convergence criterion: every node is active,
// its leaf set is complete, and its ring neighbours are the ones the
// sorted identifiers dictate. The harness polls it after a partition
// heals; the mass-failure experiment polls it over the survivors.
func RingConsistent(nodes []*pastry.Node) bool {
	n := len(nodes)
	if n == 0 {
		return false
	}
	sorted := append([]*pastry.Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Ref().ID.Cmp(sorted[j].Ref().ID) < 0 })
	for i, node := range sorted {
		if !node.Active() {
			return false
		}
		if n == 1 {
			continue // a singleton has no neighbours to agree with
		}
		right, okR := node.Leaf().RightNeighbour()
		left, okL := node.Leaf().LeftNeighbour()
		if !node.Leaf().Complete() || !okR || !okL ||
			right.ID != sorted[(i+1)%n].Ref().ID || left.ID != sorted[(i-1+n)%n].Ref().ID {
			return false
		}
	}
	return true
}
