package experiments

import (
	"math/rand"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/harness"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/topology"
)

// The mass-failure experiment measures recovery from a massive correlated
// failure — the scenario behind the paper's generalised leaf-set repair:
// "it converges in O(log N) iterations even when a large fraction of
// overlay nodes fails simultaneously" (§3.1).

// massFailureResult is the outcome of one kill-and-recover run.
type massFailureResult struct {
	nodes, killed int
	// recoveryTime is the virtual time from the failure instant until
	// every survivor's leaf set is complete and every survivor's ring
	// neighbours match the ground truth.
	recoveryTime time.Duration
	// recovered reports whether the overlay healed within the deadline.
	recovered bool
	// leafMsgs counts leaf-set messages sent during recovery.
	leafMsgs int
}

// massFailure kills half of a 120-node overlay; only the seed comes from
// the scale.
func massFailure(s Scale) (Report, error) {
	r := massFailureRun(s.Seed, 120, 0.5, 15*time.Minute)
	t := Table{Cols: []string{"nodes", "killed", "recovered", "recoverySec", "leafMsgs"}, Rows: []Row{{
		Label: "kill 50%", Values: map[string]float64{
			"nodes":       float64(r.nodes),
			"killed":      float64(r.killed),
			"recovered":   flag01(r.recovered),
			"recoverySec": r.recoveryTime.Seconds(),
			"leafMsgs":    float64(r.leafMsgs),
		}}}}
	return Report{Tables: []Table{t}, Headlines: []Headline{
		{"recovery-sec", r.recoveryTime.Seconds()},
		{"leafmsgs-per-survivor", float64(r.leafMsgs) / float64(r.nodes-r.killed)},
	}}, nil
}

// massFailureRun builds a stable overlay of n nodes, kills a fraction of
// it in one instant, and measures how long the survivors take to restore
// a globally consistent ring. It builds its own overlay with NewCluster:
// through harness.Run's join ramp, 3 of TestMassFailureRecovery's 16
// runs miss its 2-minute bound, a recovery defect both overlays hit at
// some seeds (CHANGES.md).
func massFailureRun(seed int64, n int, killFraction float64, deadline time.Duration) massFailureResult {
	sim := eventsim.New(seed)
	topo := topology.CorpNet(topology.DefaultCorpNet(), rand.New(rand.NewSource(seed)))
	nw := netmodel.New(sim, topo, 0)

	pcfg := pastry.DefaultConfig()
	pcfg.L = 16
	pcfg.PNS = false

	leafMsgs := 0
	counting := false
	nw.OnSend(func(_ *netmodel.Endpoint, _ pastry.NodeRef, m pastry.Message, _ int) {
		if counting && m.Category() == pastry.CatLeafSet {
			leafMsgs++
		}
	})

	c := nw.NewCluster(n, pcfg, 2*time.Second, nil)
	sim.RunUntil(sim.Now() + 5*time.Minute) // settle

	// Kill ⌊n·killFraction⌋ nodes, drawn over every slot, in one instant.
	kill := int(float64(n) * killFraction)
	dead := make(map[int]bool, kill)
	for _, idx := range rand.New(rand.NewSource(seed + 1)).Perm(n)[:kill] {
		c.Eps[idx].Fail()
		dead[idx] = true
	}
	counting = true
	failAt := sim.Now()

	res := massFailureResult{nodes: n, killed: len(dead)}
	var survivors []*pastry.Node
	for i, node := range c.Nodes {
		if !dead[i] {
			survivors = append(survivors, node)
		}
	}

	// Step the simulation and poll for global ring consistency.
	for end := failAt + deadline; sim.Now() < end; {
		sim.RunUntil(sim.Now() + 10*time.Second)
		if harness.RingConsistent(survivors) {
			res.recovered = true
			res.recoveryTime = sim.Now() - failAt
			break
		}
	}
	res.leafMsgs = leafMsgs
	return res
}
