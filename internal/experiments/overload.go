package experiments

import (
	"fmt"
	"time"

	"mspastry/internal/harness"
	"mspastry/internal/netmodel"
	"mspastry/internal/overload"
	"mspastry/internal/trace"
)

// The overload / graceful-degradation experiment: a fixed overlay with
// bounded per-node service capacity is driven at growing multiples of a
// base lookup rate, with a correlated churn burst mid-run (the worst
// case: repair traffic competing with application load on saturated
// queues).
const (
	// overloadBaseRate is the 1× application load in lookups per second
	// per node. It is deliberately far above the paper's 0.01/s so the
	// load multiples actually stress the service model.
	overloadBaseRate = 1.0
	// overloadBurst of the population crashes halfway through the run and
	// rejoins two minutes later.
	overloadBurst = 0.2
)

// overloadService is the per-node capacity applied to every endpoint: the
// 1× load runs comfortably, ~5× approaches saturation and ~10× is firmly
// past it.
var overloadService = netmodel.ServiceModel{QueueLimit: 32, Rate: 50}

// overloadRuns runs one harness run per load multiple over the same
// burst trace, topology shape and seed, with the service-capacity model
// bounding every node's receive path.
func overloadRuns(s Scale, nodes int, dur time.Duration, multiples []float64) []harness.Result {
	// Everyone starts active, overloadBurst of them crash at the midpoint
	// and rejoin two minutes later.
	tr := stableTrace("overload-burst", nodes, dur)
	burstAt, k := dur/2, int(float64(nodes)*overloadBurst)
	for i := 0; i < k; i++ {
		tr.Events = append(tr.Events, trace.Event{At: burstAt, Node: i, Kind: trace.Leave})
	}
	if rejoin := burstAt + 2*time.Minute; rejoin < dur {
		for i := 0; i < k; i++ {
			tr.Events = append(tr.Events, trace.Event{At: rejoin, Node: i, Kind: trace.Join})
		}
	}
	return sweep(len(multiples), s.base("gatech", tr), func(i int, cfg *harness.Config) {
		cfg.Pastry.L = 16
		// The default 10ms RTO floor is tuned for an unloaded network
		// where delay is pure propagation. With bounded service capacity
		// the RTO floor must exceed the worst-case *round-trip* queueing
		// delay — the hop waits in the peer's inbound queue and its ack
		// waits in ours, so up to 2 × QueueLimit/Rate — or a hop through
		// a backlogged peer times out while its message (or ack) is
		// still waiting in line: the duplicates re-fill the queues,
		// which re-times-out the next hops — a self-sustaining storm
		// that collapses the overlay at a few percent utilisation (and,
		// by Karn's rule, the RTT estimator never sees the late acks
		// that would teach it better). With a queue-tolerant floor a
		// timeout again means what the protocol assumes: the message
		// was shed or the peer is dead. Here 2 × 32/50 = 1.28s.
		cfg.Pastry.MinRTO = 1500 * time.Millisecond
		// The default retry budget (2/s per peer) is sized for one sender.
		// Here every node in the overlay can converge on the same hot
		// peer, so the per-sender rate must keep the aggregate
		// (Nodes × rate) below the peer's service capacity, or the
		// retransmissions alone re-saturate it.
		cfg.Pastry.RetryBudgetRate = 0.2
		cfg.Pastry.RetryBudgetBurst = 2
		cfg.LookupRate = overloadBaseRate * multiples[i]
		cfg.Service = overloadService
	})
}

func overloadSweep(s Scale) (Report, error) {
	multiples := []float64{1, 2, 5, 10}
	nodes, dur := max(30, s.PoissonNodes/5), s.staticDuration()
	res := overloadRuns(s, nodes, dur, multiples)
	t := Table{
		Title: fmt.Sprintf("Overload & graceful degradation (%d nodes, capacity %d msgs @ %.0f/s, %.0f%% churn burst)",
			nodes, overloadService.QueueLimit, overloadService.Rate, overloadBurst*100),
		Cols: []string{"success", "loss", "shedLive", "shedCtrl", "shedLkup", "shedBulk", "retx", "budgetHit", "brkOpen"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("load x%g", multiples[i]), Values: map[string]float64{
			"success":   1 - r.Totals.LossRate,
			"loss":      r.Totals.LossRate,
			"shedLive":  float64(r.ShedByLane[overload.LaneLiveness]),
			"shedCtrl":  float64(r.ShedByLane[overload.LaneControl]),
			"shedLkup":  float64(r.ShedByLane[overload.LaneLookup]),
			"shedBulk":  float64(r.ShedByLane[overload.LaneBulk]),
			"retx":      float64(r.Counters.Retransmits),
			"budgetHit": float64(r.Counters.RetryBudgetExhausted),
			"brkOpen":   float64(r.Counters.BreakerOpens),
		}})
	}
	at1, at5 := res[0], res[2]
	return Report{Tables: []Table{t}, Headlines: []Headline{
		// The graceful-degradation number: 1.0 is no degradation.
		{"success-5x/1x", ratio(1-at5.Totals.LossRate, 1-at1.Totals.LossRate)},
		{"budget-denials-5x", float64(at5.Counters.RetryBudgetExhausted)},
		{"breaker-opens-5x", float64(at5.Counters.BreakerOpens)},
	}}, nil
}
