package mspastry_test

import (
	"fmt"
	"math/rand"
	"time"

	"mspastry"
)

// A Squirrel-style decentralized web cache on MSPastry, under churn. 40
// desktop machines share their browser caches; popular pages are fetched
// from the origin once and then served by peer home nodes, even as
// machines crash.
func Example_webCache() {
	sim := mspastry.NewSimulator(7)
	topo := mspastry.NewCorpNetTopology(mspastry.DefaultCorpNetConfig(), rand.New(rand.NewSource(7)))
	net := mspastry.NewSimNetwork(sim, topo, 0)

	cfg := mspastry.DefaultConfig()
	cfg.L = 16

	originFetches := 0
	origin := mspastry.SquirrelOriginFunc(func(url string) ([]byte, error) {
		originFetches++
		return []byte("<html>" + url + "</html>"), nil
	})

	const n = 40
	var proxies []*mspastry.SquirrelProxy
	net.NewCluster(n, cfg, 2*time.Second, func(_ int, node *mspastry.Node, _ *mspastry.Endpoint) {
		proxies = append(proxies, mspastry.NewSquirrel(node, origin))
	})
	sim.RunUntil(sim.Now() + time.Minute)

	// Browse: a Zipf-ish workload over 50 pages from random machines.
	pages := make([]string, 50)
	for i := range pages {
		pages[i] = fmt.Sprintf("http://intranet.example/page-%02d", i)
	}
	requests := 0
	outcomes := map[mspastry.SquirrelOutcome]int{}
	zipf := rand.NewZipf(sim.Rand(), 1.2, 1.0, uint64(len(pages)-1))
	for r := 0; r < 600; r++ {
		page := pages[int(zipf.Uint64())]
		proxy := proxies[sim.Rand().Intn(len(proxies))]
		if !proxy.Node().Alive() {
			continue
		}
		requests++
		proxy.Get(page, func(body []byte, o mspastry.SquirrelOutcome) { outcomes[o]++ })
		sim.RunUntil(sim.Now() + time.Second)
		// Crash a machine mid-run (its cached objects move to the next
		// closest node on demand).
		if r == 300 {
			if ep, ok := net.Endpoint(proxies[13].Node().Ref().Addr); ok {
				ep.Fail()
				fmt.Printf("t=%v: machine %s crashed\n", sim.Now(), proxies[13].Node().Ref().ID)
			}
		}
	}
	sim.RunUntil(sim.Now() + 30*time.Second)

	fmt.Printf("requests:      %d\n", requests)
	fmt.Printf("local hits:    %d\n", outcomes[mspastry.SquirrelHitLocal])
	fmt.Printf("remote hits:   %d\n", outcomes[mspastry.SquirrelHitRemote])
	fmt.Printf("origin misses: %d\n", outcomes[mspastry.SquirrelMissOrigin])
	fmt.Printf("failures:      %d\n", outcomes[mspastry.SquirrelFailed])
	fmt.Printf("origin fetches (vs %d requests): %d\n", requests, originFetches)
	hitRate := float64(outcomes[mspastry.SquirrelHitLocal]+outcomes[mspastry.SquirrelHitRemote]) / float64(requests)
	fmt.Printf("overall cache hit rate: %.0f%%\n", 100*hitRate)
	// Output:
	// t=7m21s: machine dd3311c21454993e7569b9734c000315 crashed
	// requests:      590
	// local hits:    248
	// remote hits:   292
	// origin misses: 50
	// failures:      0
	// origin fetches (vs 590 requests): 50
	// overall cache hit rate: 92%
}
