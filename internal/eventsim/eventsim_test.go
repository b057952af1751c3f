package eventsim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestRunsEventsInTimeOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.At(3*time.Second, func() { order = append(order, 3) })
	s.At(1*time.Second, func() { order = append(order, 1) })
	s.At(2*time.Second, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", s.Now())
	}
}

// appendHandler is a Handler for Schedule: it records its value.
type appendHandler struct {
	order *[]int
	v     int
}

func (h appendHandler) Fire() { *h.order = append(*h.order, h.v) }

// Schedule and At feed one queue: at equal times they fire in the order
// they were scheduled, whichever of the two scheduled them.
func TestEqualTimesFireInScheduleOrder(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if i%2 == 0 {
			s.At(time.Second, func() { order = append(order, i) })
		} else {
			s.Schedule(time.Second, appendHandler{&order, i})
		}
	}
	s.Run()
	if len(order) != 10 {
		t.Fatalf("fired %d of 10 events: %v", len(order), order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New(1)
	var fired time.Duration
	s.At(5*time.Second, func() {
		s.After(2*time.Second, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 7*time.Second {
		t.Fatalf("After fired at %v, want 7s", fired)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(time.Second, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := New(1)
	fired := false
	later := s.At(2*time.Second, func() { fired = true })
	s.At(1*time.Second, func() { later.Cancel() })
	s.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

func TestRunUntilLeavesLaterEventsPending(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d * time.Second
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(2500 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if s.Now() != 2500*time.Millisecond {
		t.Fatalf("clock = %v, want 2.5s", s.Now())
	}
	s.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("executed %d events after Stop, want 3", count)
	}
	s.Run()
	if count != 10 {
		t.Fatalf("Run after Stop should resume: count=%d", count)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		s := New(seed)
		var fired []time.Duration
		var schedule func()
		n := 0
		schedule = func() {
			fired = append(fired, s.Now())
			if n++; n < 50 {
				s.After(time.Duration(s.Rand().Intn(1000))*time.Millisecond, schedule)
			}
		}
		s.At(0, schedule)
		s.Run()
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

// A cancelled event stays queued (Pending counts it) until it reaches the
// top or a push finds the queue full; either drops it without firing and
// without counting it as a step.
func TestStepsCountsOnlyFiredEvents(t *testing.T) {
	s := New(1)
	e := s.At(time.Second, func() {})
	var order []int
	s.Schedule(2*time.Second, appendHandler{&order, 2})
	e.Cancel()
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d after Cancel, want 2", s.Pending())
	}
	s.Run()
	if s.Steps() != 1 || len(order) != 1 {
		t.Fatalf("Steps = %d, fired %v; want the one live event", s.Steps(), order)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", s.Pending())
	}
}

// A cancelled arming stays queued after its event is re-armed, earlier
// than the new arming, unless the re-arm finds the queue full and reaps
// it: either way it never fires and never counts, and the new arming fires
// once, at its own time.
func TestRearmedEventSkipsItsCancelledArming(t *testing.T) {
	for _, room := range []bool{false, true} {
		s := New(1)
		var at []time.Duration
		var later []int
		e := s.At(2*time.Second, func() { at = append(at, s.Now()) })
		if room { // two later entries leave the queue room for a fourth
			s.Schedule(4*time.Second, appendHandler{&later, 4})
			s.Schedule(4*time.Second, appendHandler{&later, 4})
		}
		if s.Rearm(e, time.Second) {
			t.Fatal("Rearm of a pending event reported true")
		}
		e.Cancel()
		if e.Armed() || !s.Rearm(e, 3*time.Second) || !e.Armed() {
			t.Fatal("a cancelled event did not re-arm")
		}
		// Full, the one-entry queue is reaped by the re-arm; with room the
		// cancelled arming stays queued beside the new one.
		want := 1
		if room {
			want = 4
		}
		if s.Pending() != want {
			t.Fatalf("room=%v: Pending = %d after Cancel and Rearm, want %d", room, s.Pending(), want)
		}
		s.Run()
		if s.Steps() != uint64(1+len(later)) || !slices.Equal(at, []time.Duration{3 * time.Second}) {
			t.Fatalf("room=%v: Steps = %d, fired at %v; want the re-armed event once, at 3s", room, s.Steps(), at)
		}
		if e.Armed() {
			t.Fatal("a fired event is still armed")
		}
	}
}

// A callback re-arms its own event: the event is dead while it runs.
func TestRearmFromOwnCallback(t *testing.T) {
	s := New(1)
	var e *Event
	var at []time.Duration
	e = s.At(time.Second, func() {
		at = append(at, s.Now())
		if len(at) < 3 && !s.Rearm(e, time.Second) {
			t.Error("Rearm from the running callback reported false")
		}
	})
	s.Run()
	if want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}; !slices.Equal(at, want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
}

type nopHandler struct{}

func (*nopHandler) Fire() {}

// TestSchedulingAllocations pins the engine's own cost per event: the queue
// holds entries by value, so a handler that already exists costs nothing
// to schedule and fire, a cancellable callback costs its Event handle, and
// re-arming that handle costs nothing.
func TestSchedulingAllocations(t *testing.T) {
	s := New(1)
	for i := 0; i < 64; i++ { // a standing queue, grown before measuring
		s.At(time.Hour, func() {})
	}
	h, fn := &nopHandler{}, func() {}
	ev := s.At(s.Now(), fn)
	s.Step()
	for name, pin := range map[string]struct {
		want float64
		f    func()
	}{
		"Schedule+Step": {0, func() { s.Schedule(s.Now(), h); s.Step() }},
		"At+Step":       {1, func() { s.At(s.Now(), fn); s.Step() }},
		"Rearm+Step":    {0, func() { s.Rearm(ev, 0); s.Step() }},
	} {
		if got := testing.AllocsPerRun(100, pin.f); got != pin.want {
			t.Errorf("%s: %v allocs per event, want %v", name, got, pin.want)
		}
	}
}

func TestHeapPropertyRandomOrder(t *testing.T) {
	// Property: whatever the interleaving of scheduling, cancelling,
	// re-arming and stepping, events fire in (time, arming order) —
	// checked against a reference queue that finds its minimum by linear
	// scan. Times are drawn from a small range so that most of them
	// collide, and a re-arm or cancel picks any event made by At so far,
	// pending, fired or cancelled. The cancel-heavy input turns every
	// Schedule into a Cancel and runs the input ten times over, so that
	// pushes find the queue full of cancelled armings and reap them; the
	// queue must stay within Pending's bound of the most events live at
	// once.
	type ref struct {
		when time.Duration
		idx  int
	}
	f := func(cancelHeavy bool, raw []uint16) bool {
		if cancelHeavy {
			raw = slices.Concat(raw, raw, raw, raw, raw, raw, raw, raw, raw, raw)
		}
		s := New(1)
		peak := 0 // the most events live at once
		var fired, want []int
		var queue []ref
		events := make(map[int]*Event) // idx -> the handle At returned
		var made []int                 // the idx of every At, in order
		refStep := func() {
			if len(queue) == 0 {
				return
			}
			min := 0
			for i, e := range queue {
				if e.when < queue[min].when { // ties: the earlier index stays
					min = i
				}
			}
			want = append(want, queue[min].idx)
			queue = append(queue[:min], queue[min+1:]...)
		}
		queued := func(idx int) int {
			return slices.IndexFunc(queue, func(r ref) bool { return r.idx == idx })
		}
		for i, v := range raw {
			i := i
			d := time.Duration(v>>2%32) * time.Millisecond
			op := v % 4
			if cancelHeavy && op == 1 {
				op = 3
			}
			switch {
			case op == 0 || op > 1 && len(made) == 0:
				events[i] = s.At(s.Now()+d, func() { fired = append(fired, i) })
				made = append(made, i)
				queue = append(queue, ref{s.Now() + d, i})
			case op == 1:
				s.Schedule(s.Now()+d, appendHandler{&fired, i})
				queue = append(queue, ref{s.Now() + d, i})
			case op == 2:
				idx := made[int(v>>7)%len(made)]
				pending := queued(idx) >= 0
				if s.Rearm(events[idx], d) == pending || !events[idx].Armed() {
					return false
				}
				if !pending {
					queue = append(queue, ref{s.Now() + d, idx})
				}
			default:
				idx := made[int(v>>7)%len(made)]
				events[idx].Cancel()
				if q := queued(idx); q >= 0 {
					queue = append(queue[:q], queue[q+1:]...)
				}
			}
			if peak = max(peak, len(queue)); s.Pending() > 4*peak+4 {
				return false
			}
			if v%3 == 0 {
				s.Step()
				refStep()
			}
		}
		s.Run()
		for len(queue) > 0 {
			refStep()
		}
		return slices.Equal(fired, want) && s.Steps() == uint64(len(fired))
	}
	for _, cancelHeavy := range []bool{false, true} {
		check := func(raw []uint16) bool { return f(cancelHeavy, raw) }
		if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}); err != nil {
			t.Fatalf("cancel-heavy=%v: %v", cancelHeavy, err)
		}
	}
}

func TestPendingReflectsQueue(t *testing.T) {
	s := New(1)
	if s.Pending() != 0 {
		t.Fatal("fresh simulator has pending events")
	}
	s.At(time.Second, func() {})
	s.At(2*time.Second, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Step()
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for n := 0; n < b.N; n++ {
		s := New(int64(n))
		count := 0
		var reschedule func()
		reschedule = func() {
			count++
			if count < 100000 {
				s.After(time.Duration(s.Rand().Intn(100))*time.Millisecond, reschedule)
			}
		}
		for i := 0; i < 64; i++ {
			s.At(0, reschedule)
		}
		s.Run()
	}
}
