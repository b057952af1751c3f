// Package eventsim provides a deterministic discrete-event simulation
// engine: a virtual clock, a priority queue of scheduled callbacks and a
// seeded random source. The MSPastry evaluation in the paper runs on a
// "simple packet-level discrete event simulator"; this is ours.
//
// All state transitions in a simulation happen inside event callbacks, which
// the engine executes one at a time in (time, schedule-order) order, so
// simulations are single-threaded and reproducible for a given seed. The
// live transport's event loop runs one engine per node on the wall clock.
package eventsim

import (
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// Handler is what the simulator runs when a scheduled time arrives. The
// queue stores handlers by value beside their time, so scheduling one that
// already exists (see Schedule) allocates nothing.
type Handler interface {
	Fire()
}

// Event is a scheduled callback: the Handler that can be cancelled before
// it fires. Only its holder re-arms it (Rearm), and only once it is dead,
// so a handle stays safe to Cancel for as long as its holder keeps it.
type Event struct {
	fn func()
	// live is 1 + the seq of the event's pending arming, 0 once that
	// arming fired or was cancelled. A queue entry whose seq it does not
	// name is a cancelled arming: it never fires and never counts.
	live uint64
}

// Fire implements Handler: it ends the arming, then runs the callback, so
// the callback may re-arm its own event.
func (e *Event) Fire() {
	e.live = 0
	e.fn()
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired or was already cancelled is a no-op.
func (e *Event) Cancel() { e.live = 0 }

// Armed reports whether the event is pending: armed by At, After or Rearm
// and since then neither fired nor cancelled.
func (e *Event) Armed() bool { return e.live != 0 }

// Simulator is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; construct with New.
type Simulator struct {
	now     time.Duration
	events  []entry
	seq     uint64
	rng     *rand.Rand
	steps   uint64
	stopped bool
}

// New creates a simulator whose clock starts at 0 and whose random source is
// seeded with seed, so runs are reproducible.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's random source. All randomness in a
// simulation must come from here to keep runs reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Steps returns the number of events executed so far.
func (s *Simulator) Steps() uint64 { return s.steps }

// Pending returns the number of entries in the queue: the events
// scheduled and not yet fired, and the cancelled armings not reaped yet.
// A cancelled arming leaves at the top or when a push finds the queue
// full, so Pending stays under four times the most events ever live at
// once, plus a few.
func (s *Simulator) Pending() int { return len(s.events) }

// Schedule queues h to fire at absolute virtual time t, fire-and-forget:
// there is no handle, so nothing can cancel it and h may recycle itself
// once fired. Scheduling in the past (before Now) panics: that is always a
// logic error in a simulation. An *Event is armed by At, After and Rearm,
// not here: queued this way it would count as cancelled.
func (s *Simulator) Schedule(t time.Duration, h Handler) {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, s.now))
	}
	s.push(entry{when: t, seq: s.seq, h: h})
	s.seq++
}

// At schedules fn to run at absolute virtual time t and returns the handle
// that cancels it; like Schedule, it panics for a t before Now.
func (s *Simulator) At(t time.Duration, fn func()) *Event {
	e := &Event{fn: fn, live: s.seq + 1}
	s.Schedule(t, e)
	return e
}

// After schedules fn to run d after the current virtual time.
func (s *Simulator) After(d time.Duration, fn func()) *Event {
	return s.At(s.now+d, fn)
}

// Rearm queues e's callback again, d after the current virtual time, in
// the order After would have given a new event, and reports true. While e
// is pending it does nothing and reports false. A cancelled arming of e
// may still sit in the queue; it is told apart by its seq, so it neither
// fires nor counts as a step.
func (s *Simulator) Rearm(e *Event, d time.Duration) bool {
	if e.live != 0 {
		return false
	}
	e.live = s.seq + 1
	s.Schedule(s.now+d, e)
	return true
}

// Stop makes the current Run/RunUntil call return after the current event's
// callback completes.
func (s *Simulator) Stop() { s.stopped = true }

// Step executes the next event, advancing the clock to its time. It returns
// false when no events remain.
func (s *Simulator) Step() bool {
	for len(s.events) > 0 {
		e := s.pop()
		if e.canceled() {
			continue
		}
		s.now = e.when // never earlier: Schedule refuses the past
		s.steps++
		e.h.Fire()
		return true
	}
	return false
}

// Run executes events until none remain or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with scheduled time <= t, then advances the clock
// to exactly t. Events scheduled after t remain pending.
func (s *Simulator) RunUntil(t time.Duration) {
	s.stopped = false
	for !s.stopped {
		when, ok := s.Next()
		if !ok || when > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Next reaps cancelled events off the top of the queue and returns the
// time of the next one that will fire, and false when none remains.
func (s *Simulator) Next() (time.Duration, bool) {
	for len(s.events) > 0 {
		if e := s.events[0]; !e.canceled() {
			return e.when, true
		}
		s.pop()
	}
	return 0, false
}

// entry is one queued event. The queue is a binary min-heap of entries
// held by value, ordered by (when, seq): seq is unique, so the order is
// total, events at equal times fire in scheduling order, and runs are
// deterministic whatever the heap's internal layout.
type entry struct {
	when time.Duration
	seq  uint64
	h    Handler
}

func (e entry) before(o entry) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

// canceled reports whether the entry is an Event arming that was
// cancelled, whether or not the Event was re-armed since; Step, Next and
// push drop such entries without counting them.
func (e entry) canceled() bool {
	ev, ok := e.h.(*Event)
	return ok && ev.live != e.seq+1
}

// push adds e to the queue. A full queue is reaped of its cancelled
// entries first, and grows only if live entries still fill more than half
// of it: a cancelled arming pins its callback until it leaves, and a
// live deployment cancels most timers (an acked hop's) seconds before
// they come due. The order over (when, seq) is total, so reaping cannot
// change what fires next.
func (s *Simulator) push(e entry) {
	if len(s.events) == cap(s.events) {
		s.reap()
		if 2*len(s.events) > cap(s.events) {
			s.events = slices.Grow(s.events, cap(s.events)-len(s.events)+1) // as append grows a full slice
		}
	}
	h := append(s.events, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	s.events = h
}

// reap drops every cancelled entry and restores the heap order over the
// entries left.
func (s *Simulator) reap() {
	h := s.events[:0]
	for _, e := range s.events {
		if !e.canceled() {
			h = append(h, e)
		}
	}
	clear(s.events[len(h):]) // drop the handler references
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(h, i, h[i])
	}
	s.events = h
}

func (s *Simulator) pop() entry {
	h := s.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{} // drop the handler reference
	s.events = h[:n]
	if n > 0 {
		down(h[:n], 0, last)
	}
	return top
}

// down puts e in the hole at i of h, or below it, where the heap order
// allows.
func down(h []entry, i int, e entry) {
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if child+1 < len(h) && h[child+1].before(h[child]) {
			child++
		}
		if !h[child].before(e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}
