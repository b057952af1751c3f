package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mspastry/internal/pastry"
)

// pendingTimers is the number of entries in the transport's engine, read
// on its loop: the pending timers and the cancelled armings not reaped yet.
func pendingTimers(tr *UDP) (n int) {
	tr.DoSync(func(*pastry.Node) { n = tr.sim.Pending() })
	return n
}

// TestUDPTimersOffLoop hammers Schedule, Cancel and re-arm from several
// goroutines, each through Do, while the event loop fires what comes due:
// the Env is the loop's alone, and Do is how another goroutine reaches it.
// A handle lives on the loop, from the Do that schedules it to the Do that
// cancels it, which may come after it fired. Every timer that was not
// cancelled fires exactly once, a cancelled one at most once (its cancel
// can come after the fire), one re-armed after its cancel at least once
// and at most twice, and nothing is left in the engine. Run under -race.
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
				var tm pastry.Timer // touched only on the loop
				d := time.Duration(rng.Intn(2000)) * time.Microsecond
				tr.Do(func(*pastry.Node) { tm = env.Schedule(d, func() { fired[id].Add(1) }) })
				if rng.Intn(2) == 0 {
					if rng.Intn(2) == 0 {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
					cancelled[id] = true
					again, d := rng.Intn(2) == 0, time.Duration(rng.Intn(2000))*time.Microsecond
					tr.Do(func(*pastry.Node) {
						tm.Cancel()
						tm.Cancel()
						rearmed[id] = again && rearm.Rearm(tm, d)
					})
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
// not wait for it: the Do that schedules it wakes the loop, which re-arms
// its timer before it sleeps again.
func TestUDPEarlierTimerWakesSleepingLoop(t *testing.T) {
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	env := tr.Env()
	tr.DoSync(func(*pastry.Node) { env.Schedule(time.Hour, func() { t.Error("the 1 h timer fired") }) })
	time.Sleep(20 * time.Millisecond) // the loop is asleep until the hour is up
	const d = 30 * time.Millisecond
	t0 := time.Now()
	done := make(chan time.Duration, 1)
	tr.Do(func(*pastry.Node) { env.Schedule(d, func() { done <- time.Since(t0) }) })
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
// engine's Event handle, and Cancel and re-arming that handle at none.
// It measures on the loop, where the Env is used.
func TestUDPScheduleAllocations(t *testing.T) {
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	env := tr.Env()
	fn := func() {}
	tr.DoSync(func(*pastry.Node) {
		env.Schedule(time.Hour, fn) // a standing timer, so the queue has grown
		if got := testing.AllocsPerRun(1000, func() { env.Schedule(time.Minute, fn).Cancel() }); got != 1 {
			t.Errorf("Schedule+Cancel allocates %v times, want 1", got)
		}
		rearm, handle := env.(pastry.Rearmer), env.Schedule(time.Minute, fn)
		handle.Cancel()
		if got := testing.AllocsPerRun(1000, func() { rearm.Rearm(handle, time.Minute); handle.Cancel() }); got != 0 {
			t.Errorf("re-arm+Cancel allocates %v times, want 0", got)
		}
	})
}

// TestUDPCancelledTimerNeverFires holds the transport's Env to
// pastry.Timer's contract where it is promised: on the event loop. A node
// reuses a hop or probe record once it has cancelled the record's timer, so
// a cancelled timer that fired would time out a stranger's hop. It holds
// the Env to pastry.Rearmer's contract too: a record keeps its handle and
// re-arms it, so a cancelled arming of it that fired would do the same, and
// a closed transport re-arms nothing.
func TestUDPCancelledTimerNeverFires(t *testing.T) {
	const d = 20 * time.Millisecond
	tr, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	env := tr.Env()
	rearm := env.(pastry.Rearmer)
	const (
		noRearm          = iota
		rearmCancelled   // by the arming code, after its cancels, to 2d
		rearmPending     // by the arming code, still pending: refused
		rearmFromRunning // by its own callback, once, d later
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
	}
	fired := make([]atomic.Int32, len(cases))
	victims := make([]pastry.Timer, len(cases))
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
	// A closed transport runs no callbacks, so it re-arms nothing.
	tr.Close()
	if rearm.Rearm(victims[0], 0) || pendingTimers(tr) != 0 {
		t.Error("a closed transport re-armed a timer")
	}
}
