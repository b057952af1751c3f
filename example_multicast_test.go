package mspastry_test

import (
	"fmt"
	"math/rand"
	"time"

	"mspastry"
)

// Scribe-style application-level multicast over MSPastry — the substrate of
// the paper's SplitStream video broadcast deployment. A publisher streams
// messages to two groups while an interior tree node crashes; the
// soft-state tree heals and delivery continues.
func Example_multicast() {
	sim := mspastry.NewSimulator(11)
	topo := mspastry.NewGATechTopology(mspastry.DefaultGATechConfig(), rand.New(rand.NewSource(11)))
	net := mspastry.NewSimNetwork(sim, topo, 0)

	cfg := mspastry.DefaultConfig()
	cfg.L = 16

	const n = 48
	var engines []*mspastry.ScribeEngine
	net.NewCluster(n, cfg, 2*time.Second, func(_ int, node *mspastry.Node, ep *mspastry.Endpoint) {
		engines = append(engines, mspastry.NewScribe(node, ep))
	})
	sim.RunUntil(sim.Now() + time.Minute)
	fmt.Printf("overlay of %d nodes up at t=%v\n", n, sim.Now())

	sports := mspastry.KeyFromString("group:sports")
	news := mspastry.KeyFromString("group:news")

	counts := make([]int, n)
	for i := 8; i < 32; i++ {
		i := i
		engines[i].Subscribe(sports, func(_ mspastry.ID, payload []byte) { counts[i]++ })
	}
	for i := 24; i < 40; i++ {
		i := i
		engines[i].Subscribe(news, func(_ mspastry.ID, payload []byte) { counts[i]++ })
	}
	sim.RunUntil(sim.Now() + 15*time.Second)

	for round := 0; round < 30; round++ {
		engines[0].Publish(sports, []byte(fmt.Sprintf("sports-%d", round)))
		if round%3 == 0 {
			engines[1].Publish(news, []byte(fmt.Sprintf("news-%d", round)))
		}
		sim.RunUntil(sim.Now() + 5*time.Second)
		if round == 15 {
			// Crash a subscriber that is likely an interior tree node.
			if ep, ok := net.Endpoint(engines[20].Node().Ref().Addr); ok {
				ep.Fail()
				fmt.Printf("t=%v: interior node crashed; tree will heal via soft state\n", sim.Now())
			}
		}
	}
	// Allow a refresh cycle to heal, then publish a final round.
	sim.RunUntil(sim.Now() + 2*time.Minute)
	engines[0].Publish(sports, []byte("final"))
	sim.RunUntil(sim.Now() + 10*time.Second)

	healthy := 0
	for i := 8; i < 32; i++ {
		if i != 20 && counts[i] > 0 {
			healthy++
		}
	}
	fmt.Printf("sports subscribers that received traffic: %d/23\n", healthy)
	delivered, forwarded := uint64(0), uint64(0)
	for _, e := range engines {
		delivered += e.Delivered
		forwarded += e.Forwarded
	}
	fmt.Printf("multicast deliveries: %d, tree forwards: %d\n", delivered, forwarded)
	// Output:
	// overlay of 48 nodes up at t=2m36s
	// t=4m11s: interior node crashed; tree will heal via soft state
	// sports subscribers that received traffic: 23/23
	// multicast deliveries: 889, tree forwards: 982
}
