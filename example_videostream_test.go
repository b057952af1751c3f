package mspastry_test

import (
	"fmt"
	"math/rand"
	"time"

	"mspastry"
)

// SplitStream-style striped broadcast over MSPastry — the paper's authors
// ran exactly this (a video broadcast on 108 desktops). A publisher
// streams frames split across 4 data stripes plus a parity stripe, each
// stripe on its own Scribe tree. Mid-broadcast, a stripe tree's interior
// node crashes; viewers keep reconstructing every frame from the
// surviving stripes until the soft state heals the tree.
func Example_videoStream() {
	sim := mspastry.NewSimulator(33)
	topo := mspastry.NewGATechTopology(mspastry.DefaultGATechConfig(), rand.New(rand.NewSource(33)))
	net := mspastry.NewSimNetwork(sim, topo, 0)

	pcfg := mspastry.DefaultConfig()
	pcfg.L = 16

	const n = 40
	var engines []*mspastry.ScribeEngine
	net.NewCluster(n, pcfg, 2*time.Second, func(_ int, node *mspastry.Node, ep *mspastry.Endpoint) {
		engines = append(engines, mspastry.NewScribe(node, ep))
	})
	sim.RunUntil(sim.Now() + time.Minute)

	const viewers = 24
	frames := make([]int, n)
	var channels []*mspastry.SplitStreamChannel
	for i := 8; i < 8+viewers; i++ {
		i := i
		ch := mspastry.JoinSplitStream(engines[i], "launch-keynote",
			func(seq uint64, payload []byte) { frames[i]++ })
		channels = append(channels, ch)
	}
	sim.RunUntil(sim.Now() + 20*time.Second)

	pub := mspastry.NewSplitStreamPublisher(engines[0], "launch-keynote")
	const totalFrames = 40
	for f := 0; f < totalFrames; f++ {
		frame := make([]byte, 1200)
		for i := range frame {
			frame[i] = byte(f)
		}
		pub.Publish(frame)
		sim.RunUntil(sim.Now() + 2*time.Second)
		if f == totalFrames/2 {
			// Crash a viewer that likely forwards interior stripe traffic.
			if ep, ok := net.Endpoint(engines[14].Node().Ref().Addr); ok {
				ep.Fail()
				fmt.Printf("t=%v: interior node crashed mid-broadcast\n", sim.Now())
			}
		}
	}
	sim.RunUntil(sim.Now() + time.Minute)

	healthy := 0
	var viaParity uint64
	for idx, i := 0, 8; i < 8+viewers; i, idx = i+1, idx+1 {
		if i == 14 {
			continue // the crashed machine
		}
		if frames[i] >= totalFrames*9/10 {
			healthy++
		}
		viaParity += channels[idx].Recovered
	}
	fmt.Printf("viewers with >=90%% of frames: %d/%d (crashed viewer excluded)\n", healthy, viewers-1)
	fmt.Printf("frames reconstructed via the parity stripe: %d\n", viaParity)
	// Output:
	// t=3m22s: interior node crashed mid-broadcast
	// viewers with >=90% of frames: 23/23 (crashed viewer excluded)
	// frames reconstructed via the parity stripe: 640
}
