// Kvstore: a replicated key-value store over MSPastry (the PAST/CFS-style
// archival use the paper motivates). Values are stored at the key's root
// and replicated to its closest neighbours; the example crashes the root
// of a hot key and shows reads still succeed.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"mspastry"
)

func main() {
	log.SetFlags(0)
	sim := mspastry.NewSimulator(21)
	topo := mspastry.NewCorpNetTopology(mspastry.DefaultCorpNetConfig(), rand.New(rand.NewSource(21)))
	net := mspastry.NewSimNetwork(sim, topo, 0)

	pcfg := mspastry.DefaultConfig()
	pcfg.L = 16

	const n = 24
	var stores []*mspastry.DHTStore
	net.NewCluster(n, pcfg, 2*time.Second, func(_ int, node *mspastry.Node, ep *mspastry.Endpoint) {
		stores = append(stores, mspastry.NewDHT(node, ep, mspastry.DefaultDHTConfig()))
	})
	sim.RunUntil(sim.Now() + time.Minute)
	log.Printf("DHT of %d nodes up at t=%v (replication factor 3)", n, sim.Now())

	// Store 40 documents from random writers.
	keys := make([]mspastry.ID, 40)
	puts := 0
	for i := range keys {
		keys[i] = mspastry.KeyFromString(fmt.Sprintf("doc-%d", i))
		stores[sim.Rand().Intn(n)].Put(keys[i], []byte(fmt.Sprintf("contents of doc %d", i)), func(err error) {
			if err == nil {
				puts++
			}
		})
		sim.RunUntil(sim.Now() + time.Second)
	}
	sim.RunUntil(sim.Now() + 30*time.Second)
	log.Printf("stored %d/%d documents", puts, len(keys))

	// Crash the root of doc-0, wait for repair, then read everything back.
	var root *mspastry.DHTStore
	for _, s := range stores {
		if !s.HasLocal(keys[0]) {
			continue
		}
		if root == nil || keys[0].Distance(s.Node().Ref().ID).Cmp(keys[0].Distance(root.Node().Ref().ID)) < 0 {
			root = s
		}
	}
	if ep, ok := net.Endpoint(root.Node().Ref().Addr); ok {
		ep.Fail()
		log.Printf("t=%v: crashed the root of doc-0 (%s)", sim.Now(), root.Node().Ref().ID)
	}
	sim.RunUntil(sim.Now() + 3*time.Minute)

	gets, errs := 0, 0
	for i, key := range keys {
		want := fmt.Sprintf("contents of doc %d", i)
		reader := stores[sim.Rand().Intn(n)]
		if !reader.Node().Alive() {
			reader = stores[0]
		}
		reader.Get(key, func(v []byte, err error) {
			if err != nil || string(v) != want {
				errs++
				return
			}
			gets++
		})
		sim.RunUntil(sim.Now() + time.Second)
	}
	sim.RunUntil(sim.Now() + 30*time.Second)

	fmt.Printf("reads after root failure: %d ok, %d failed (of %d)\n", gets, errs, len(keys))
	if errs > 0 {
		log.Fatal("data lost despite replication")
	}
	fmt.Println("all documents survived the root failure via leaf-set replication")

	// Delete the first 5 documents. Deletes write tombstones that
	// replicate like values, so replicas that missed the delete cannot
	// resurrect a document through the anti-entropy sweeps.
	dels := 0
	for i := 0; i < 5; i++ {
		stores[sim.Rand().Intn(n)].Delete(keys[i], func(err error) {
			if err == nil {
				dels++
			}
		})
		sim.RunUntil(sim.Now() + time.Second)
	}
	// Several sweep cycles: time for a stale replica to try to push the
	// value back, and for the tombstone to win.
	sim.RunUntil(sim.Now() + 2*time.Minute)
	log.Printf("deleted %d/5 documents, waited out two sweep cycles", dels)

	stillDeleted, resurrected := 0, 0
	for i := 0; i < 5; i++ {
		reader := stores[sim.Rand().Intn(n)]
		if !reader.Node().Alive() {
			reader = stores[0]
		}
		reader.Get(keys[i], func(v []byte, err error) {
			if err == mspastry.ErrDHTNotFound {
				stillDeleted++
			} else {
				resurrected++
			}
		})
		sim.RunUntil(sim.Now() + time.Second)
	}
	sim.RunUntil(sim.Now() + 30*time.Second)
	fmt.Printf("deleted documents: %d stay deleted, %d resurrected\n", stillDeleted, resurrected)
	if resurrected > 0 {
		log.Fatal("a deleted document came back")
	}
	fmt.Println("tombstones held: deletes propagate instead of resurrecting")
}
