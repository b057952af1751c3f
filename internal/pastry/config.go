package pastry

import (
	"fmt"
	"time"
)

// Protocol parameters that no experiment, command or test varies.
const (
	// maxProbeRetries is the number of probe retries before a node is
	// marked faulty (paper: 2).
	maxProbeRetries = 2
	// maxRouteAttempts bounds how many times one hop of a routed message
	// is retransmitted (to alternative next hops) before being dropped.
	maxRouteAttempts = 8
	// failureHistoryK is the size of the failure history used to estimate
	// the failure rate.
	failureHistoryK = 16
	// reconnectInterval is how often a node re-probes one peer from its
	// reconnect cache (see reconnect.go). reconnectRetries caps the probes
	// per peer before its record is dropped for good, bounding post-mortem
	// traffic per failure. reconnectCacheSize bounds the cache; the
	// most-retried record is evicted first.
	reconnectInterval  = 30 * time.Second
	reconnectRetries   = 20
	reconnectCacheSize = 32
	// distProbeCount is the number of probes whose median is one distance
	// measurement (paper: 3).
	distProbeCount = 3
)

// Config holds the MSPastry protocol parameters. DefaultConfig returns the
// paper's base configuration; the boolean switches exist to run the paper's
// ablation experiments (per-hop acks, active probing, hold-on-suspect,
// structured heartbeats, proximity neighbour selection). Self-tuning of the
// probing period, probe suppression and symmetric distance probes are always
// on. The unexported fields are magnitudes only this package's tests shrink.
type Config struct {
	// B is the number of bits per identifier digit (paper default 4, so
	// identifiers are base 16).
	B int
	// L is the leaf set size; L/2 neighbours on each side (paper: 32).
	L int

	// Tls is the leaf-set heartbeat period (paper: 30 s).
	Tls time.Duration
	// To is the probe timeout (paper: 3 s, the TCP SYN timeout).
	To time.Duration

	// PerHopAcks enables per-hop acknowledgements with aggressive
	// retransmission for lookup traffic.
	PerHopAcks bool
	// MinRTO and MaxRTO clamp the per-hop retransmission timeout.
	MinRTO, MaxRTO time.Duration
	// HoldOnSuspect keeps a node from delivering a lookup while a node
	// closer to the key is excluded from routing (suspected after a missed
	// ack, already tried, or behind an open breaker) but not marked failed:
	// nextHop's verdict is hold, and the lookup is retransmitted with
	// backoff or held until the suspect's probe resolves. This is the
	// consistency/latency trade-off the paper discusses for the last hop;
	// turning it off (an ablation) delivers instead, which lowers delay
	// slightly but admits incorrect deliveries under link loss.
	HoldOnSuspect bool

	// ActiveProbing enables liveness probing of routing-table entries.
	ActiveProbing bool
	// TargetRawLoss is the raw loss-rate target Lr the routing-table
	// probing period is self-tuned to hit (paper: 5%).
	TargetRawLoss float64

	// StructuredHeartbeats sends a single heartbeat to the left ring
	// neighbour instead of to every leaf-set member (paper §4.1). The
	// all-pairs variant exists as an ablation baseline.
	StructuredHeartbeats bool

	// PNS enables proximity neighbour selection (nearest-neighbour join
	// seeding, distance probing, constrained gossiping).
	PNS bool
	// DistProbeSpacing is the gap between the distProbeCount probes of one
	// distance measurement (paper: 1 s).
	DistProbeSpacing time.Duration
	// RTMaintenance is the periodic routing-table maintenance interval
	// (paper: 20 minutes).
	RTMaintenance time.Duration

	// TickInterval is the internal maintenance timer granularity.
	TickInterval time.Duration
	// lookupTTL bounds the number of overlay hops (routing loops are
	// impossible in a consistent state; the TTL guards churn races).
	lookupTTL int

	// RetryBudgetRate caps retransmission and probe-retry traffic per
	// peer with a token bucket refilling at this many tokens per second.
	// A struggling peer then triggers re-routing around it instead of an
	// exponential retransmission storm (first transmissions and re-routes
	// to other peers are never budgeted — only repeat sends to the same
	// peer are). 0 disables retry budgets.
	RetryBudgetRate float64
	// RetryBudgetBurst is the bucket depth: how many budgeted sends to
	// one peer may happen back to back before the rate limit bites.
	RetryBudgetBurst int

	// BreakerThreshold is the number of consecutive per-hop ack failures
	// after which a peer's circuit breaker opens: the peer is routed around
	// until its cooldown ends, then regular traffic is the trial and only
	// an ack closes the breaker (breaker.go). 0 disables circuit breakers.
	BreakerThreshold int
	// breakerCooldown is how long an opened breaker denies the peer before
	// it goes half-open; each failed trial (a missed ack) doubles the wait
	// up to breakerMaxCooldown.
	breakerCooldown    time.Duration
	breakerMaxCooldown time.Duration

	// PeerStrangerTTL bounds how long per-peer state survives for a peer
	// that was never admitted into routing state (leaf set, routing table
	// or an active probe): senders that never make it in cannot leak
	// liveness or RTT state indefinitely. PeerAdmittedTTL is the idle
	// lifetime for once-admitted peers, preserving RTT estimates and
	// reconnect memory across transient membership gaps. Zero values take
	// the registry defaults (1 minute / 10 minutes).
	PeerStrangerTTL time.Duration
	PeerAdmittedTTL time.Duration
}

// DefaultConfig returns the paper's base configuration: b=4, l=32,
// Tls=30s, per-hop acks, routing-table probing self-tuned to a 5% raw loss
// rate.
func DefaultConfig() Config {
	return Config{
		B:                    4,
		L:                    32,
		Tls:                  30 * time.Second,
		To:                   3 * time.Second,
		PerHopAcks:           true,
		HoldOnSuspect:        true,
		MinRTO:               10 * time.Millisecond,
		MaxRTO:               3 * time.Second,
		ActiveProbing:        true,
		TargetRawLoss:        0.05,
		StructuredHeartbeats: true,
		PNS:                  true,
		DistProbeSpacing:     time.Second,
		RTMaintenance:        20 * time.Minute,
		TickInterval:         15 * time.Second,
		lookupTTL:            64,
		RetryBudgetRate:      2,
		RetryBudgetBurst:     8,
		BreakerThreshold:     3,
		breakerCooldown:      3 * time.Second,
		breakerMaxCooldown:   time.Minute,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.B < 1 || c.B > 8:
		return fmt.Errorf("pastry: B=%d outside [1,8]", c.B)
	case c.L < 2 || c.L%2 != 0:
		return fmt.Errorf("pastry: L=%d must be even and >= 2", c.L)
	case c.Tls <= 0 || c.To <= 0:
		return fmt.Errorf("pastry: Tls and To must be positive")
	case c.TargetRawLoss <= 0 || c.TargetRawLoss >= 1:
		return fmt.Errorf("pastry: TargetRawLoss=%v outside (0,1)", c.TargetRawLoss)
	case c.TickInterval <= 0:
		return fmt.Errorf("pastry: TickInterval must be positive")
	case c.lookupTTL < 1 || c.breakerCooldown <= 0 || c.breakerMaxCooldown < c.breakerCooldown:
		return fmt.Errorf("pastry: Config must start from DefaultConfig")
	case c.RetryBudgetRate < 0:
		return fmt.Errorf("pastry: RetryBudgetRate negative")
	case c.RetryBudgetRate > 0 && c.RetryBudgetBurst < 1:
		return fmt.Errorf("pastry: RetryBudgetBurst must be >= 1 with a retry budget")
	case c.BreakerThreshold < 0:
		return fmt.Errorf("pastry: BreakerThreshold negative")
	case c.PeerStrangerTTL < 0 || c.PeerAdmittedTTL < 0:
		return fmt.Errorf("pastry: peer lifecycle TTLs must not be negative")
	}
	return nil
}

// MinTrt is the lower bound on the routing-table probing period:
// (retries+1) probe timeouts, as in the paper.
func (c Config) MinTrt() time.Duration {
	return time.Duration(maxProbeRetries+1) * c.To
}
