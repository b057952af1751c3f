package mspastry_test

import (
	"fmt"
	"math/rand"
	"time"

	"mspastry"
)

// A replicated key-value store over MSPastry (the PAST/CFS-style archival
// use the paper motivates). Values are stored at the key's root and
// replicated to its closest neighbours; the example crashes the root of a
// key and shows reads still succeed, then deletes documents and shows the
// tombstones hold.
func Example_kvStore() {
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
	fmt.Printf("stored %d/%d documents\n", puts, len(keys))

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
		fmt.Printf("t=%v: crashed the root of doc-0 (%s)\n", sim.Now(), root.Node().Ref().ID)
	}
	sim.RunUntil(sim.Now() + 3*time.Minute)

	// liveReader picks a random store, falling back on the first when the
	// pick is the crashed machine.
	liveReader := func() *mspastry.DHTStore {
		if r := stores[sim.Rand().Intn(n)]; r.Node().Alive() {
			return r
		}
		return stores[0]
	}
	gets, errs := 0, 0
	for i, key := range keys {
		want := fmt.Sprintf("contents of doc %d", i)
		liveReader().Get(key, func(v []byte, err error) {
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
	fmt.Printf("deleted %d/5 documents, waited out two sweep cycles\n", dels)

	stillDeleted, resurrected := 0, 0
	for i := 0; i < 5; i++ {
		liveReader().Get(keys[i], func(v []byte, err error) {
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
	// Output:
	// stored 40/40 documents
	// t=2m58s: crashed the root of doc-0 (9b58a3e8fe6ae46b9abaa3fabe11f5e4)
	// reads after root failure: 40 ok, 0 failed (of 40)
	// deleted 5/5 documents, waited out two sweep cycles
	// deleted documents: 5 stay deleted, 0 resurrected
}
