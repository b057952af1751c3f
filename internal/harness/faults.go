package harness

import (
	"fmt"
	"sort"
	"time"

	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/stats"
)

// FaultScript is a scriptable fault scenario: a list of timed
// netmodel.Fault windows interleaved with the trace's churn. Event times
// are measured times — relative to the end of the setup ramp, like the
// trace's churn events — so a scenario is independent of the ramp length.
// Build one with Add and Partition and set it on Config.Faults.
type FaultScript struct {
	events []faultEvent
}

type faultEvent struct {
	at, dur time.Duration
	fault   netmodel.Fault
	// partitionFrac > 0 marks a slot-relative partition: its side A is the
	// first partitionFrac of the endpoint slots, and the recovery tracker
	// watches its heal.
	partitionFrac float64
	// linkSlots, when non-nil, names the From and To endpoint slots of a
	// slot-relative link loss.
	linkSlots []int
}

// add appends one window, rejecting a dur that would never close it.
func (s *FaultScript) add(ev faultEvent) *FaultScript {
	if ev.dur <= 0 {
		panic(fmt.Sprintf("harness: fault window dur %v, want > 0", ev.dur))
	}
	s.events = append(s.events, ev)
	return s
}

// Add arms f for dur starting at measured time at. netmodel.FaultSet.At
// validates f when the run is built.
func (s *FaultScript) Add(at, dur time.Duration, f netmodel.Fault) *FaultScript {
	return s.add(faultEvent{at: at, dur: dur, fault: f})
}

// Partition splits the overlay for dur starting at measured time at: the
// first fracA of the endpoint slots form side A, the rest side B. The
// harness tracks ring repair after the heal.
func (s *FaultScript) Partition(at, dur time.Duration, fracA float64) *FaultScript {
	if fracA <= 0 || fracA >= 1 {
		panic("harness: partition fraction must be in (0,1)")
	}
	return s.add(faultEvent{at: at, dur: dur, partitionFrac: fracA})
}

// linkLoss injects asymmetric loss on the directed link between two
// endpoint slots for dur starting at measured time at.
func (s *FaultScript) linkLoss(at, dur time.Duration, fromSlot, toSlot int, rate float64) *FaultScript {
	return s.add(faultEvent{at: at, dur: dur, fault: netmodel.Fault{LinkLoss: rate},
		linkSlots: []int{fromSlot, toSlot}})
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
	faults := r.nw.Faults()
	for _, ev := range script.events {
		at, f := r.setup+ev.at, ev.fault
		if ev.linkSlots != nil {
			f.From, f.To = r.slots[ev.linkSlots[0]].ep.Addr(), r.slots[ev.linkSlots[1]].ep.Addr()
		}
		if ev.partitionFrac > 0 {
			cut := int(float64(len(r.slots)) * ev.partitionFrac)
			base := r.slotBase()
			f.Partition = func(addr string) bool { return mustAtoi(addr)-base < cut }
		}
		faults.At(at, ev.dur, f)
		if f.Partition != nil {
			r.trackRecovery(at + ev.dur)
		}
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
