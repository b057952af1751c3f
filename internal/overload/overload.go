// Package overload provides the building blocks of the overlay's
// overload-protection layer: priority lanes for inbound work, a bounded
// multi-lane queue that sheds lowest-priority-first, a deterministic
// token bucket for retry budgets, and a per-peer circuit-breaker state
// machine.
//
// The package is dependency-free (standard library only) and fully
// deterministic: every time-dependent decision takes the caller's clock
// as an argument, so the same code runs under the discrete-event
// simulator and a live transport without perturbing seeded runs.
package overload

import (
	"fmt"
	"time"
)

// Lane is a priority class for inbound work. Lower values are higher
// priority: liveness traffic (acks, heartbeats, probes) must survive
// overload or the failure detector collapses and takes routing with it;
// bulk replication is the first thing to shed.
type Lane int

const (
	// LaneLiveness carries failure-detection traffic: per-hop acks,
	// heartbeats, leaf-set and routing-table probes and their replies.
	// Shedding it turns overload into false positives and repair storms.
	LaneLiveness Lane = iota
	// LaneControl carries routing control: joins, repair, row and
	// nearest-neighbour exchanges, distance probes.
	LaneControl
	// LaneLookup carries routed application lookups.
	LaneLookup
	// LaneBulk carries bulk transfer: replication values, anti-entropy
	// payloads and direct application traffic.
	LaneBulk
	// NumLanes sizes dense per-lane arrays.
	NumLanes
)

func (l Lane) String() string {
	switch l {
	case LaneLiveness:
		return "liveness"
	case LaneControl:
		return "control"
	case LaneLookup:
		return "lookup"
	case LaneBulk:
		return "bulk"
	default:
		return fmt.Sprintf("Lane(%d)", int(l))
	}
}

// Queue is a bounded multi-lane FIFO with strict-priority dispatch and
// lowest-priority-first shedding. Not safe for concurrent use; owners
// confine it to their event loop or wrap it in a mutex.
type Queue struct {
	limit int
	lanes [NumLanes][]any
	size  int
	// Shed counts items dropped per lane since construction.
	Shed [NumLanes]uint64
}

// NewQueue creates a queue holding at most limit items across all lanes.
func NewQueue(limit int) *Queue {
	if limit < 1 {
		panic(fmt.Sprintf("overload: queue limit %d must be >= 1", limit))
	}
	return &Queue{limit: limit}
}

// Len reports the number of queued items.
func (q *Queue) Len() int { return q.size }

// LoadFactor reports occupancy in [0,1].
func (q *Queue) LoadFactor() float64 {
	return float64(q.size) / float64(q.limit)
}

// Push enqueues v on lane. When the queue is full it sheds from the
// lowest-priority occupied lane: if some occupied lane has strictly lower
// priority than the incoming item, that lane's oldest item is dropped to
// make room; otherwise the incoming item itself is shed (an arrival never
// displaces equal-or-higher-priority work). It returns the lane that was
// shed from, or -1 if nothing was shed.
func (q *Queue) Push(lane Lane, v any) (shed Lane) {
	if lane < 0 || lane >= NumLanes {
		panic(fmt.Sprintf("overload: bad lane %d", int(lane)))
	}
	if q.size >= q.limit {
		victim := q.lowestOccupied()
		if victim <= lane {
			q.Shed[lane]++
			return lane
		}
		q.lanes[victim] = q.lanes[victim][1:]
		q.size--
		q.Shed[victim]++
		shed = victim
	} else {
		shed = -1
	}
	q.lanes[lane] = append(q.lanes[lane], v)
	q.size++
	return shed
}

// lowestOccupied returns the lowest-priority lane holding at least one
// item. Only meaningful on a non-empty queue.
func (q *Queue) lowestOccupied() Lane {
	for l := NumLanes - 1; l >= 0; l-- {
		if len(q.lanes[l]) > 0 {
			return l
		}
	}
	panic("overload: lowestOccupied on empty queue")
}

// Pop dequeues the oldest item from the highest-priority occupied lane.
func (q *Queue) Pop() (v any, lane Lane, ok bool) {
	for l := Lane(0); l < NumLanes; l++ {
		if len(q.lanes[l]) == 0 {
			continue
		}
		v = q.lanes[l][0]
		q.lanes[l][0] = nil // release the reference for GC
		q.lanes[l] = q.lanes[l][1:]
		q.size--
		return v, l, true
	}
	return nil, 0, false
}

// Drain empties the queue without counting sheds, returning how many
// items were discarded. Owners call it when the consumer dies (a crashed
// node processes nothing).
func (q *Queue) Drain() int {
	n := q.size
	for l := range q.lanes {
		q.lanes[l] = nil
	}
	q.size = 0
	return n
}

// TokenBucket is a deterministic token bucket: Rate tokens per second
// refill up to Burst. All methods take the caller's clock, so simulated
// and live time behave identically.
type TokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Duration
}

// NewTokenBucket creates a full bucket.
func NewTokenBucket(rate, burst float64, now time.Duration) *TokenBucket {
	if rate <= 0 || burst < 1 {
		panic(fmt.Sprintf("overload: token bucket rate=%v burst=%v invalid", rate, burst))
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// Take consumes one token if available, reporting whether it succeeded.
func (b *TokenBucket) Take(now time.Duration) bool {
	b.refill(now)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Full reports whether the bucket is at capacity — an idle bucket that an
// owner may prune without losing state.
func (b *TokenBucket) Full(now time.Duration) bool {
	b.refill(now)
	return b.tokens >= b.burst
}

func (b *TokenBucket) refill(now time.Duration) {
	if now <= b.last {
		return
	}
	b.tokens += b.rate * (now - b.last).Seconds()
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes traffic normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen fast-fails: the peer is routed around until the
	// cooldown expires.
	BreakerOpen
	// BreakerHalfOpen admits regular traffic again as the trial: the
	// first outcome closes the breaker (success) or reopens it with a
	// doubled cooldown (failure).
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// Breaker is one peer's circuit-breaker state machine. Threshold
// consecutive failures open it for Cooldown; each reopen doubles the
// cooldown up to MaxCooldown; any success closes it and resets both the
// failure count and the cooldown. When Ready reports the cooldown has
// expired, the owner moves the breaker half-open and lets regular
// traffic through again; the trial's outcome feeds back through Success
// or Failure. The success signal must come from the protected traffic
// class itself (e.g. a per-hop ack), not from a cheap side channel: an
// overloaded peer often still answers high-priority probes while
// shedding real work, and closing on such a reply makes the breaker
// flap uselessly.
type Breaker struct {
	Threshold   int
	Cooldown    time.Duration
	MaxCooldown time.Duration

	state    BreakerState
	failures int
	openedAt time.Duration
	openFor  time.Duration
}

// State returns the breaker's position.
func (b *Breaker) State() BreakerState { return b.state }

// Failures returns the consecutive-failure count.
func (b *Breaker) Failures() int { return b.failures }

// Denies reports whether regular traffic must route around the peer:
// true only while open. Half-open admits traffic — that traffic is the
// recovery trial.
func (b *Breaker) Denies() bool { return b.state == BreakerOpen }

// Failure records one failed interaction, reporting whether the breaker
// transitioned to open on this call. A failure in half-open reopens
// immediately with a doubled cooldown.
func (b *Breaker) Failure(now time.Duration) (opened bool) {
	switch b.state {
	case BreakerHalfOpen:
		b.reopen(now)
		return true
	case BreakerOpen:
		return false
	}
	b.failures++
	if b.failures >= b.Threshold {
		b.openFor = b.Cooldown
		b.state = BreakerOpen
		b.openedAt = now
		return true
	}
	return false
}

// reopen returns an unhealthy half-open breaker to open, doubling the
// cooldown up to MaxCooldown.
func (b *Breaker) reopen(now time.Duration) {
	b.openFor *= 2
	if b.MaxCooldown > 0 && b.openFor > b.MaxCooldown {
		b.openFor = b.MaxCooldown
	}
	b.state = BreakerOpen
	b.openedAt = now
}

// Success records one successful interaction for a request issued at
// sentAt, reporting whether it closed a tripped breaker. Evidence older
// than the breaker's last opening is stale — under a retransmission
// storm there are always stragglers in flight, and an ack for a request
// sent before the breaker tripped only proves the peer served pre-storm
// work, not that it has recovered — so an open or half-open breaker
// ignores it. Fresh evidence closes the breaker and resets all backoff
// state.
func (b *Breaker) Success(sentAt time.Duration) (closed bool) {
	if b.state != BreakerClosed && sentAt < b.openedAt {
		return false
	}
	closed = b.state != BreakerClosed
	b.state = BreakerClosed
	b.failures = 0
	b.openFor = 0
	return closed
}

// Trip forces the breaker open at now regardless of the consecutive-
// failure count: the owner has out-of-band evidence the peer is bad —
// e.g. a routing result confirmed Byzantine by cross-path voting —
// rather than a run of timeouts. A trip from half-open counts as a
// failed trial (doubled cooldown); a trip while already open restarts
// the cooldown clock. Recovery is the usual path: cooldown, half-open
// trial, fresh Success.
func (b *Breaker) Trip(now time.Duration) {
	switch b.state {
	case BreakerHalfOpen:
		b.reopen(now)
		return
	case BreakerOpen:
		b.openedAt = now
		return
	}
	b.failures = b.Threshold
	b.openFor = b.Cooldown
	b.state = BreakerOpen
	b.openedAt = now
}

// Ready reports whether an open breaker's cooldown has expired, so the
// owner should move it half-open and admit regular traffic as the trial.
func (b *Breaker) Ready(now time.Duration) bool {
	return b.state == BreakerOpen && now-b.openedAt >= b.openFor
}

// HalfOpen moves the breaker to half-open. The owner calls it when
// Ready, re-admitting regular traffic as the recovery trial.
func (b *Breaker) HalfOpen() { b.state = BreakerHalfOpen }

// Stale reports a half-open breaker that has seen no trial outcome for
// at least its maximum cooldown: no traffic wants the peer, so the
// breaker carries no information and the owner may prune it.
func (b *Breaker) Stale(now time.Duration) bool {
	return b.state == BreakerHalfOpen && b.MaxCooldown > 0 && now-b.openedAt >= b.MaxCooldown
}
