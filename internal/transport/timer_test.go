package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mspastry/internal/pastry"
)

// refTimer is the reference model's timer: the real one's deadline and
// scheduling order, in a list that is scanned linearly.
type refTimer struct {
	when time.Duration
	seq  int
	live bool
}

// TestTimerHeapMatchesLinearScan drives the heap and a linear-scan model
// through random interleavings of Schedule, re-arm and Cancel (of pending,
// fired and already cancelled timers, and Cancel from inside a callback —
// often of a timer due at the same instant) and firing, with deadlines
// drawn from a handful of values so that they collide. The two must fire
// the same timers in the same order: by deadline, equal deadlines in
// scheduling order, a re-armed timer ordered as a new one. The heap must
// also hold exactly the pending timers — Cancel removes its entry at
// once — a re-arm of a pending timer must do nothing, and every handle
// must keep its callback.
func TestTimerHeapMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := &UDP{wake: make(chan struct{}, 1)} // the heap needs no socket
		var (
			handles   []*udpTimer
			ref       []*refTimer
			victim    = map[int]int{} // timer → the timer its callback cancels
			got, want []int
			now       time.Duration
			seq       int
		)
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 4 || len(handles) == 0 && op < 7:
				id := len(handles)
				when := now + time.Duration(rng.Intn(6))
				if len(handles) > 0 && rng.Intn(3) == 0 {
					victim[id] = rng.Intn(len(handles))
				}
				seq++
				ref = append(ref, &refTimer{when: when, seq: seq, live: true})
				handles = append(handles, tr.schedule(when, func() {
					got = append(got, id)
					if v, ok := victim[id]; ok {
						handles[v].Cancel()
					}
				}))
			case op < 5:
				id := rng.Intn(len(handles))
				when := now + time.Duration(rng.Intn(6))
				if handles[id].rearm(when) == ref[id].live {
					t.Fatalf("seed %d step %d: re-arm of timer %d (pending=%v) reported %v",
						seed, step, id, ref[id].live, !ref[id].live)
				}
				if !ref[id].live {
					seq++
					*ref[id] = refTimer{when: when, seq: seq, live: true}
				}
			case op < 7:
				id := rng.Intn(len(handles))
				handles[id].Cancel()
				ref[id].live = false
			default:
				now += time.Duration(rng.Intn(4))
				fn, next := tr.popDue(now)
				for ; fn != nil; fn, next = tr.popDue(now) {
					fn()
				}
				for id := refDue(ref, now); id >= 0; id = refDue(ref, now) {
					want = append(want, id)
					ref[id].live = false
					if v, ok := victim[id]; ok {
						ref[v].live = false
					}
				}
				if wantNext := refNext(ref); next != wantNext {
					t.Fatalf("seed %d step %d: next deadline %v, want %v", seed, step, next, wantNext)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: fired %v, want %v", seed, step, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d: firing %d was timer %d, want %d", seed, step, i, got[i], want[i])
				}
			}
			pending := 0
			for id, r := range ref {
				ut := handles[id]
				if r.live {
					pending++
				}
				if r.live != (ut.index >= 0) || ut.fn == nil {
					t.Fatalf("seed %d step %d: timer %d pending=%v has index %d, callback kept=%v",
						seed, step, id, r.live, ut.index, ut.fn != nil)
				}
				if r.live && tr.timers[ut.index] != ut {
					t.Fatalf("seed %d step %d: timer %d is not at its index", seed, step, id)
				}
			}
			if len(tr.timers) != pending {
				t.Fatalf("seed %d step %d: heap holds %d entries, %d timers are pending", seed, step, len(tr.timers), pending)
			}
		}
		if len(got) == 0 || len(victim) == 0 {
			t.Fatalf("seed %d: the interleaving fired %d timers and had %d cancelling callbacks", seed, len(got), len(victim))
		}
	}
}

func pendingTimers(tr *UDP) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.timers)
}

// refDue is the earliest live timer due at now, ties to the one scheduled
// first, or -1.
func refDue(ref []*refTimer, now time.Duration) int {
	best := -1
	for id, r := range ref {
		if r.live && r.when <= now && (best < 0 || r.when < ref[best].when || r.when == ref[best].when && r.seq < ref[best].seq) {
			best = id
		}
	}
	return best
}

func refNext(ref []*refTimer) time.Duration {
	next := forever
	for _, r := range ref {
		if r.live && r.when < next {
			next = r.when
		}
	}
	return next
}

// TestUDPTimersOffLoop hammers Schedule, Cancel and re-arm from several
// goroutines while the event loop fires what comes due: the heap is the
// transport's first state shared between the loop and arbitrary callers.
// Every timer that was not cancelled fires exactly once, a cancelled one
// at most once (an off-loop Cancel can lose the race with the fire), one
// re-armed after its cancel at least once and at most twice, and nothing
// is left in the heap. Run under -race.
func TestUDPTimersOffLoop(t *testing.T) {
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	env := tr.Env()
	rearm := env.(pastry.Rearmer)
	const workers, each = 4, 500
	fired := make([]atomic.Int32, workers*each)
	cancelled, rearmed := make([]bool, workers*each), make([]bool, workers*each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < each; i++ {
				id := w*each + i
				tm := env.Schedule(time.Duration(rng.Intn(2000))*time.Microsecond, func() { fired[id].Add(1) })
				if rng.Intn(2) == 0 {
					if rng.Intn(2) == 0 {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
					tm.Cancel()
					tm.Cancel()
					cancelled[id] = true
					if rng.Intn(2) == 0 && rearm.Rearm(tm, time.Duration(rng.Intn(2000))*time.Microsecond) {
						rearmed[id] = true
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if !waitFor(t, 5*time.Second, func() bool { return pendingTimers(tr) == 0 }) {
		t.Fatal("timers were still pending seconds after the last deadline")
	}
	tr.DoSync(func(*pastry.Node) {}) // the last callback has returned
	for id := range fired {
		n := fired[id].Load()
		if rearmed[id] && (n < 1 || n > 2) || !rearmed[id] && (n > 1 || n == 0 && !cancelled[id]) {
			t.Errorf("timer %d (cancelled=%v, re-armed=%v) fired %d times", id, cancelled[id], rearmed[id], n)
		}
	}
}

// An earlier deadline scheduled while the loop sleeps on a later one must
// not wait for it: Schedule wakes the loop, which re-arms its timer.
func TestUDPEarlierTimerWakesSleepingLoop(t *testing.T) {
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	env := tr.Env()
	env.Schedule(time.Hour, func() { t.Error("the 1 h timer fired") })
	tr.DoSync(func(*pastry.Node) {})
	time.Sleep(20 * time.Millisecond) // the loop is asleep until the hour is up
	const d = 30 * time.Millisecond
	t0 := time.Now()
	done := make(chan time.Duration, 1)
	env.Schedule(d, func() { done <- time.Since(t0) })
	select {
	case took := <-done:
		if took < d {
			t.Errorf("a %v timer fired after %v", d, took)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("a %v timer had not fired after 5 s: the loop slept on", d)
	}
}

// TestUDPScheduleAllocations pins Env.Schedule at one allocation, the
// handle that is also the heap entry, and Cancel and re-arming that handle
// at none.
func TestUDPScheduleAllocations(t *testing.T) {
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	env := tr.Env()
	fn := func() {}
	env.Schedule(time.Hour, fn) // the heap's slice has grown
	if got := testing.AllocsPerRun(1000, func() { env.Schedule(time.Minute, fn).Cancel() }); got != 1 {
		t.Errorf("Schedule+Cancel allocates %v times, want 1", got)
	}
	rearm, handle := env.(pastry.Rearmer), env.Schedule(time.Minute, fn)
	handle.Cancel()
	if got := testing.AllocsPerRun(1000, func() { rearm.Rearm(handle, time.Minute); handle.Cancel() }); got != 0 {
		t.Errorf("re-arm+Cancel allocates %v times, want 0", got)
	}
}

// TestUDPCancelledTimerNeverFires holds the transport's Env to
// pastry.Timer's contract where it is promised: on the event loop. A node
// reuses a hop or probe record once it has cancelled the record's timer, so
// a cancelled timer that fired would time out a stranger's hop. It holds
// the Env to pastry.Rearmer's contract too: a record keeps its handle and
// re-arms it, so a cancelled arming of it that fired would do the same, and
// a closed transport or another transport's handle re-arms nothing.
func TestUDPCancelledTimerNeverFires(t *testing.T) {
	const d = 20 * time.Millisecond
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	other, err := Listen("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	env := tr.Env()
	rearm := env.(pastry.Rearmer)
	const (
		noRearm          = iota
		rearmCancelled   // by the arming code, after its cancels, to 2d
		rearmPending     // by the arming code, still pending: refused
		rearmFromRunning // by its own callback, once, d later
		rearmForeign     // the arming code offers the other transport's handle: refused
	)
	cases := []struct {
		name   string
		cancel bool
		after  time.Duration // < 0: cancelled by the arming code, twice
		rearm  int
		want   int32
	}{
		{"never cancelled", false, 0, noRearm, 1},
		{"at once, twice", true, -1, noRearm, 0},
		{"from an earlier callback", true, d / 2, noRearm, 0},
		// Both deadlines pass while the loop is busy, so both are due when
		// it looks: the one scheduled first runs and cancels the other.
		{"from a callback due at the same time", true, d, noRearm, 0},
		{"cancelled, re-armed before the old deadline", true, -1, rearmCancelled, 1},
		{"re-armed from its own callback", false, 0, rearmFromRunning, 2},
		{"re-armed while pending", false, 0, rearmPending, 1},
		{"a foreign handle re-armed", false, 0, rearmForeign, 1},
	}
	fired := make([]atomic.Int32, len(cases))
	victims := make([]pastry.Timer, len(cases))
	var foreignRan atomic.Int32
	foreign := other.Env().Schedule(time.Hour, func() { foreignRan.Add(1) })
	foreign.Cancel()
	t0 := time.Now()
	var early atomic.Bool // the re-armed cancelled timer ran before its new deadline
	tr.DoSync(func(*pastry.Node) {
		for i, tc := range cases {
			if tc.cancel && tc.after >= 0 {
				env.Schedule(tc.after, func() { victims[i].Cancel() })
			}
			victims[i] = env.Schedule(d, func() {
				if fired[i].Add(1) == 1 && tc.rearm == rearmCancelled && time.Since(t0) < 2*d {
					early.Store(true)
				}
				victims[i].Cancel() // on itself, running: nothing
				if tc.rearm == rearmFromRunning && fired[i].Load() == 1 && !rearm.Rearm(victims[i], d) {
					t.Errorf("%s: Rearm refused the running timer", tc.name)
				}
			})
			if tc.cancel && tc.after < 0 {
				victims[i].Cancel()
				victims[i].Cancel()
			}
			switch tc.rearm {
			case rearmCancelled:
				if !rearm.Rearm(victims[i], 2*d) {
					t.Errorf("%s: Rearm refused the cancelled timer", tc.name)
				}
			case rearmPending:
				if rearm.Rearm(victims[i], 2*d) {
					t.Errorf("%s: Rearm took a pending timer", tc.name)
				}
			case rearmForeign:
				if rearm.Rearm(foreign, 0) {
					t.Errorf("%s: Rearm took another transport's handle", tc.name)
				}
			}
		}
		time.Sleep(d + d/2) // every first deadline passes with the loop held
	})
	if !waitFor(t, 5*time.Second, func() bool { return pendingTimers(tr) == 0 }) {
		t.Fatal("timers were still pending seconds after the last deadline")
	}
	tr.DoSync(func(*pastry.Node) { // the last callback has returned
		for i := range victims {
			victims[i].Cancel() // after the deadline: nothing to undo
		}
	})
	for i, tc := range cases {
		if got := fired[i].Load(); got != tc.want {
			t.Errorf("%s: the callback ran %d times, want %d", tc.name, got, tc.want)
		}
	}
	if early.Load() {
		t.Error("the cancelled, re-armed timer ran at its old deadline")
	}
	if n := pendingTimers(other); n != 0 || foreignRan.Load() != 0 {
		t.Errorf("the other transport has %d timers pending, and its cancelled one ran %d times", n, foreignRan.Load())
	}
	// A closed transport runs no callbacks, so it re-arms nothing.
	tr.Close()
	if rearm.Rearm(victims[0], 0) || pendingTimers(tr) != 0 {
		t.Error("a closed transport re-armed a timer")
	}
}
