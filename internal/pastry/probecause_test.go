package pastry

import (
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/id"
)

// repairCauses counts the leaf-set repair launches the nodes it observes
// report, by cause.
type repairCauses struct {
	NopObserver
	causes map[string]int
}

func (r *repairCauses) MessageSent(*Node, Category, bool)    {}
func (r *repairCauses) AckRTT(*Node, NodeRef, time.Duration) {}
func (r *repairCauses) TrtTuned(*Node, time.Duration)        {}
func (r *repairCauses) LeafSetRepair(_ *Node, cause string)  { r.causes[cause]++ }

// TestChurnEventProbeCost bounds the leaf-set maintenance cost of churn:
// one failure or join must not trigger more than ~l^2 leaf-set messages
// (the candidate-probe memory prevents nomination storms), and failure
// announcements must happen at most once per failure.
func TestChurnEventProbeCost(t *testing.T) {
	obs := &repairCauses{causes: map[string]int{}}
	net := newTestNet(t, 99)
	net.obs = obs
	cfg := testConfig()
	cfg.L = 32
	nodes := buildOverlay(t, net, 100, cfg)
	net.run(5 * time.Minute)
	clear(obs.causes)
	before := net.sent[CatLeafSet]

	rng := rand.New(rand.NewSource(5))
	alive := append([]*Node(nil), nodes...)
	const churnEvents = 40 // 20 failures + 20 joins
	for round := 0; round < churnEvents/2; round++ {
		v := alive[rng.Intn(len(alive))]
		v.Fail()
		for i, n := range alive {
			if n == v {
				alive = append(alive[:i], alive[i+1:]...)
				break
			}
		}
		j := net.addNode(id.Random(rng), cfg, nil)
		j.SetSeedSource(func() (NodeRef, bool) { return alive[rng.Intn(len(alive))].Ref(), true })
		j.Join(alive[rng.Intn(len(alive))].Ref())
		alive = append(alive, j)
		net.run(2 * time.Minute)
	}

	perEvent := (net.sent[CatLeafSet] - before) / churnEvents
	t.Logf("leafset msgs per churn event: %d; repair launches by cause: %v", perEvent, obs.causes)
	if perEvent > cfg.L*cfg.L {
		t.Fatalf("leaf-set maintenance cost %d msgs/event exceeds l^2=%d", perEvent, cfg.L*cfg.L)
	}
	// One announcement wave per failure: a confirmation or repair probe
	// that timed out and announced again would cascade into l^2 probes.
	if got := obs.causes["announce"]; got > churnEvents/2 {
		t.Fatalf("announcement cascade detected: %d announce waves for %d failures", got, churnEvents/2)
	}
	for _, n := range alive {
		if !n.Active() {
			t.Fatal("node inactive after churn")
		}
	}
}
