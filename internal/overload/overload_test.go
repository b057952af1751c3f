package overload

import (
	"testing"
	"time"
)

func TestQueueStrictPriorityPop(t *testing.T) {
	q := NewQueue(8)
	q.Push(LaneBulk, "b1")
	q.Push(LaneLookup, "l1")
	q.Push(LaneLiveness, "a1")
	q.Push(LaneControl, "c1")
	q.Push(LaneLiveness, "a2")

	want := []string{"a1", "a2", "c1", "l1", "b1"}
	for i, w := range want {
		v, _, ok := q.Pop()
		if !ok || v.(string) != w {
			t.Fatalf("pop %d = %v ok=%v, want %q", i, v, ok, w)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
}

// TestQueueShedsLowestPriorityFirst pins the shedding order under a full
// queue: an arriving higher-priority item displaces the oldest item of
// the lowest-priority occupied lane; an arriving item with no
// lower-priority victim is shed itself.
func TestQueueShedsLowestPriorityFirst(t *testing.T) {
	q := NewQueue(4)
	q.Push(LaneBulk, "bulk")
	q.Push(LaneLookup, "lk1")
	q.Push(LaneLookup, "lk2")
	q.Push(LaneControl, "ctl")

	// Full queue: a liveness arrival must displace the bulk item first.
	if shed := q.Push(LaneLiveness, "live1"); shed != LaneBulk {
		t.Fatalf("shed lane = %v, want %v", shed, LaneBulk)
	}
	// Next victim is the oldest lookup.
	if shed := q.Push(LaneLiveness, "live2"); shed != LaneLookup {
		t.Fatalf("shed lane = %v, want %v", shed, LaneLookup)
	}
	// An arriving lookup has no lower-priority victim left (queue holds
	// liveness, control, lookup) — the lookup itself is shed, never the
	// liveness or control traffic.
	if shed := q.Push(LaneLookup, "lk3"); shed != LaneLookup {
		t.Fatalf("shed lane = %v, want incoming %v shed", shed, LaneLookup)
	}
	// An arriving bulk item is likewise shed itself.
	if shed := q.Push(LaneBulk, "b2"); shed != LaneBulk {
		t.Fatalf("shed lane = %v, want incoming %v shed", shed, LaneBulk)
	}

	if q.Shed[LaneLiveness] != 0 {
		t.Fatalf("liveness sheds = %d, want 0", q.Shed[LaneLiveness])
	}
	if q.Shed[LaneBulk] != 2 || q.Shed[LaneLookup] != 2 {
		t.Fatalf("sheds bulk=%d lookup=%d, want 2 and 2", q.Shed[LaneBulk], q.Shed[LaneLookup])
	}

	// Surviving order: both liveness trials, control, then the younger
	// lookup (lk1 was displaced).
	want := []string{"live1", "live2", "ctl", "lk2"}
	for i, w := range want {
		v, _, ok := q.Pop()
		if !ok || v.(string) != w {
			t.Fatalf("pop %d = %v ok=%v, want %q", i, v, ok, w)
		}
	}
}

func TestQueueDrain(t *testing.T) {
	q := NewQueue(4)
	q.Push(LaneLookup, 1)
	q.Push(LaneBulk, 2)
	if n := q.Drain(); n != 2 {
		t.Fatalf("Drain = %d, want 2", n)
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("pop after drain succeeded")
	}
}

func TestTokenBucketCapsAndRefills(t *testing.T) {
	now := time.Duration(0)
	b := NewTokenBucket(2, 4, now) // 2 tokens/s, burst 4
	for i := 0; i < 4; i++ {
		if !b.Take(now) {
			t.Fatalf("take %d failed with a full bucket", i)
		}
	}
	if b.Take(now) {
		t.Fatal("take succeeded on an empty bucket")
	}
	// Half a second refills one token.
	now += 500 * time.Millisecond
	if !b.Take(now) {
		t.Fatal("take failed after refill")
	}
	if b.Take(now) {
		t.Fatal("second take succeeded after a single-token refill")
	}
	// A long idle period refills to burst, never beyond.
	now += time.Hour
	if b.refill(now); b.tokens != 4 {
		t.Fatalf("tokens after idle = %v, want burst 4", b.tokens)
	}
	if !b.Full(now) {
		t.Fatal("Full = false at capacity")
	}
}

// TestBreakerTransitions pins the full state machine:
// closed → open → half-open → closed, and half-open failure reopening
// with a doubled, capped cooldown.
func TestBreakerTransitions(t *testing.T) {
	b := &Breaker{Threshold: 3, Cooldown: time.Second, MaxCooldown: 3 * time.Second}
	now := time.Duration(0)

	if b.Denies() {
		t.Fatal("new breaker denies traffic")
	}
	if b.Failure(now) || b.Failure(now) {
		t.Fatal("breaker opened before threshold")
	}
	if !b.Failure(now) {
		t.Fatal("breaker did not open at threshold")
	}
	if b.State() != BreakerOpen || !b.Denies() {
		t.Fatalf("state = %v after threshold failures", b.State())
	}

	// Cooldown gating.
	if b.Ready(now + 999*time.Millisecond) {
		t.Fatal("Ready before cooldown")
	}
	now += time.Second
	if !b.Ready(now) {
		t.Fatal("not Ready after cooldown")
	}
	b.HalfOpen()
	if b.State() != BreakerHalfOpen || b.Denies() {
		t.Fatalf("state = %v, want half-open (admitting trial traffic)", b.State())
	}

	// Trial failure: reopen with doubled cooldown.
	if !b.Failure(now) {
		t.Fatal("half-open failure did not report reopen")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after trial failure", b.State())
	}
	if b.Ready(now + 2*time.Second - time.Millisecond) {
		t.Fatal("Ready before doubled cooldown")
	}
	now += 2 * time.Second
	if !b.Ready(now) {
		t.Fatal("not Ready after doubled cooldown")
	}

	// Two more trips double again but cap at MaxCooldown.
	b.HalfOpen()
	b.Failure(now)
	if b.openFor != 3*time.Second {
		t.Fatalf("cooldown = %v, want capped 3s", b.openFor)
	}

	// Stale evidence — a success whose request predates the opening —
	// must not close the breaker: during a storm there are always
	// straggling acks for pre-storm sends in flight.
	if b.Success(now - time.Second) {
		t.Fatal("stale success closed an open breaker")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after stale success, want open", b.State())
	}

	// Trial success (fresh evidence) closes and resets everything.
	now += 3 * time.Second
	b.HalfOpen()
	if !b.Success(now) {
		t.Fatal("fresh success did not report closing")
	}
	if b.State() != BreakerClosed || b.Failures() != 0 || b.Denies() {
		t.Fatalf("state=%v failures=%d after success", b.State(), b.Failures())
	}
	// The next trip starts again from the base cooldown.
	b.Failure(now)
	b.Failure(now)
	b.Failure(now)
	if b.openFor != time.Second {
		t.Fatalf("cooldown after reset = %v, want 1s", b.openFor)
	}
}

// TestBreakerTrip pins the out-of-band opening path used by the
// secure-routing distrust signal: Trip opens immediately from closed,
// restarts the clock from open, counts as a failed trial from half-open,
// and recovers through the ordinary half-open machinery.
func TestBreakerTrip(t *testing.T) {
	b := &Breaker{Threshold: 3, Cooldown: time.Second, MaxCooldown: 8 * time.Second}
	now := time.Duration(0)

	b.Trip(now)
	if b.State() != BreakerOpen || !b.Denies() {
		t.Fatalf("state = %v after Trip from closed, want open", b.State())
	}
	if b.Failures() != 3 {
		t.Fatalf("failures = %d after Trip, want Threshold", b.Failures())
	}

	// Trip while open restarts the cooldown clock without doubling.
	now += 900 * time.Millisecond
	b.Trip(now)
	if b.Ready(now + 999*time.Millisecond) {
		t.Fatal("Ready before restarted cooldown expired")
	}
	if !b.Ready(now + time.Second) {
		t.Fatal("not Ready after restarted cooldown")
	}

	// Trip from half-open is a failed trial: doubled cooldown.
	now += time.Second
	b.HalfOpen()
	b.Trip(now)
	if b.State() != BreakerOpen || b.openFor != 2*time.Second {
		t.Fatalf("state=%v openFor=%v after half-open Trip, want open/2s", b.State(), b.openFor)
	}

	// Normal recovery: cooldown, half-open, fresh success.
	now += 2 * time.Second
	if !b.Ready(now) {
		t.Fatal("not Ready after doubled cooldown")
	}
	b.HalfOpen()
	if !b.Success(now) {
		t.Fatal("fresh success did not close a tripped breaker")
	}
	if b.State() != BreakerClosed || b.Failures() != 0 {
		t.Fatalf("state=%v failures=%d after recovery", b.State(), b.Failures())
	}
}

// TestBreakerStale pins the pruning signal: a half-open breaker that no
// trial traffic has touched for a full MaxCooldown is stale; open and
// closed breakers never are.
func TestBreakerStale(t *testing.T) {
	b := &Breaker{Threshold: 1, Cooldown: time.Second, MaxCooldown: 4 * time.Second}
	now := time.Duration(0)
	if b.Stale(now + time.Hour) {
		t.Fatal("closed breaker reported stale")
	}
	b.Failure(now)
	if b.Stale(now + time.Hour) {
		t.Fatal("open breaker reported stale")
	}
	now += time.Second
	b.HalfOpen()
	if b.Stale(now + 2*time.Second) {
		t.Fatal("fresh half-open breaker reported stale")
	}
	if !b.Stale(now + 4*time.Second) {
		t.Fatal("untouched half-open breaker not stale after MaxCooldown")
	}
}
