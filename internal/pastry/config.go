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
	// reconnectRetries caps the probes per peer in the reconnect cache
	// before its record is dropped for good, bounding post-mortem traffic
	// per failure. reconnectCacheSize bounds the cache; the most-retried
	// record is evicted first.
	reconnectRetries   = 20
	reconnectCacheSize = 32
	// secureReplyTimeout is how long the origin of a secure lookup waits
	// for a plausible root report before (re-)issuing a redundant round.
	secureReplyTimeout = 5 * time.Second
	// secureDensityRatio is the failure test's suspicion threshold: a
	// reported neighbourhood sparser than this multiple of the local
	// density estimate is flagged (γ in internal/secure).
	// secureDistanceRatio flags roots farther than this multiple of the
	// local mean inter-node gap from the key (δ in internal/secure).
	secureDensityRatio  = 4
	secureDistanceRatio = 8
)

// Config holds the MSPastry protocol parameters. DefaultConfig returns the
// paper's base configuration; the boolean switches exist to run the paper's
// ablation experiments (per-hop acks, active probing, self-tuning, probe
// suppression, symmetric probing, structured heartbeats).
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
	// HoldOnSuspect prevents a node from delivering a lookup while a
	// closer node is suspected-but-unconfirmed (excluded after a missed
	// ack): the message is held or retransmitted with backoff until the
	// suspect's probe resolves. This is the consistency/latency trade-off
	// the paper discusses for the last hop; disabling it lowers delay
	// slightly but admits incorrect deliveries under link loss.
	HoldOnSuspect bool

	// ActiveProbing enables liveness probing of routing-table entries.
	ActiveProbing bool
	// SelfTune enables self-tuning of the routing-table probing period to
	// hit TargetRawLoss; when disabled, FixedTrt is used.
	SelfTune bool
	// TargetRawLoss is the raw loss-rate target Lr (paper: 5%).
	TargetRawLoss float64
	// FixedTrt is the routing-table probing period when SelfTune is off.
	FixedTrt time.Duration

	// Suppression replaces failure-detection traffic with any message
	// traffic observed between a pair of nodes.
	Suppression bool
	// StructuredHeartbeats sends a single heartbeat to the left ring
	// neighbour instead of to every leaf-set member (paper §4.1). The
	// all-pairs variant exists as an ablation baseline.
	StructuredHeartbeats bool

	// PNS enables proximity neighbour selection (nearest-neighbour join
	// seeding, distance probing, constrained gossiping).
	PNS bool
	// DistProbeCount and DistProbeSpacing configure distance measurement
	// (paper: median of 3 probes spaced 1 s).
	DistProbeCount   int
	DistProbeSpacing time.Duration
	// SymmetricProbes enables the symmetric distance-probe optimisation.
	SymmetricProbes bool
	// RTMaintenance is the periodic routing-table maintenance interval
	// (paper: 20 minutes).
	RTMaintenance time.Duration

	// ReconnectInterval is how often a node re-probes one peer from its
	// reconnect cache — peers it marked faulty and purged from routing
	// state. Crash-failed peers cost a bounded number of extra pings;
	// peers that were merely unreachable (a network partition) answer
	// once the network heals, which is how the overlay re-merges: without
	// the cache, a partition outlasting the probing period is permanent,
	// because both sides purge each other completely and no message ever
	// crosses the cut again. 0 disables the cache.
	ReconnectInterval time.Duration

	// TickInterval is the internal maintenance timer granularity.
	TickInterval time.Duration
	// LookupTTL bounds the number of overlay hops (routing loops are
	// impossible in a consistent state; the TTL guards churn races).
	LookupTTL int

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
	// after which a peer's circuit breaker opens: the peer is fast-failed
	// and routed around until a recovery probe succeeds. 0 disables
	// circuit breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an opened breaker waits before probing
	// the peer (half-open); each failed recovery probe doubles the wait
	// up to BreakerMaxCooldown.
	BreakerCooldown time.Duration
	// BreakerMaxCooldown caps the doubling backoff between recovery
	// probes.
	BreakerMaxCooldown time.Duration

	// SecureRouting enables the Byzantine-routing defenses: lookups ask
	// the root for a completion report, the report's leaf-set density is
	// checked against the locally observed id-space density (the routing
	// failure test), and suspected misroutes are re-issued over multiple
	// neighbour-diverse first hops whose reports vote on the true root.
	// Off by default: the honest-world baseline pays no report traffic.
	SecureRouting bool
	// SecureFanout is how many diverse first hops a redundant round uses.
	SecureFanout int
	// SecureMaxRounds bounds redundant rounds per lookup.
	SecureMaxRounds int

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
// rate, probe suppression and symmetric distance probes.
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
		SelfTune:             true,
		TargetRawLoss:        0.05,
		FixedTrt:             60 * time.Second,
		Suppression:          true,
		StructuredHeartbeats: true,
		PNS:                  true,
		DistProbeCount:       3,
		DistProbeSpacing:     time.Second,
		SymmetricProbes:      true,
		RTMaintenance:        20 * time.Minute,
		ReconnectInterval:    30 * time.Second,
		TickInterval:         15 * time.Second,
		LookupTTL:            64,
		RetryBudgetRate:      2,
		RetryBudgetBurst:     8,
		BreakerThreshold:     3,
		BreakerCooldown:      3 * time.Second,
		BreakerMaxCooldown:   time.Minute,
		SecureFanout:         4,
		SecureMaxRounds:      3,
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
	case c.SelfTune && (c.TargetRawLoss <= 0 || c.TargetRawLoss >= 1):
		return fmt.Errorf("pastry: TargetRawLoss=%v outside (0,1)", c.TargetRawLoss)
	case !c.SelfTune && c.ActiveProbing && c.FixedTrt <= 0:
		return fmt.Errorf("pastry: FixedTrt must be positive without self-tuning")
	case c.DistProbeCount < 1:
		return fmt.Errorf("pastry: DistProbeCount must be >= 1")
	case c.ReconnectInterval < 0:
		return fmt.Errorf("pastry: ReconnectInterval negative")
	case c.TickInterval <= 0:
		return fmt.Errorf("pastry: TickInterval must be positive")
	case c.LookupTTL < 1:
		return fmt.Errorf("pastry: LookupTTL must be >= 1")
	case c.RetryBudgetRate < 0:
		return fmt.Errorf("pastry: RetryBudgetRate negative")
	case c.RetryBudgetRate > 0 && c.RetryBudgetBurst < 1:
		return fmt.Errorf("pastry: RetryBudgetBurst must be >= 1 with a retry budget")
	case c.BreakerThreshold < 0:
		return fmt.Errorf("pastry: BreakerThreshold negative")
	case c.BreakerThreshold > 0 && c.BreakerCooldown <= 0:
		return fmt.Errorf("pastry: BreakerCooldown must be positive with breakers enabled")
	case c.BreakerThreshold > 0 && c.BreakerMaxCooldown < c.BreakerCooldown:
		return fmt.Errorf("pastry: BreakerMaxCooldown below BreakerCooldown")
	case c.SecureRouting && c.SecureFanout < 2:
		return fmt.Errorf("pastry: SecureFanout=%d must be >= 2 with secure routing", c.SecureFanout)
	case c.SecureRouting && c.SecureMaxRounds < 1:
		return fmt.Errorf("pastry: SecureMaxRounds must be >= 1 with secure routing")
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
