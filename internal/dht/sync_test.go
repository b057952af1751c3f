package dht

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/store"
)

func TestDeleteTombstones(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SweepInterval = 20 * time.Second
	c := newCluster(t, 12, 11, cfg)
	key := id.New(0xdead, 0xbeef)
	c.stores[1].Put(key, []byte("doomed"), func(error) {})
	c.settle(15 * time.Second)

	delErr := error(fmt.Errorf("not called"))
	c.stores[4].Delete(key, func(err error) { delErr = err })
	c.settle(15 * time.Second)
	if delErr != nil {
		t.Fatalf("delete: %v", delErr)
	}
	var getErr error
	c.stores[7].Get(key, func(_ []byte, e error) { getErr = e })
	c.settle(15 * time.Second)
	if getErr != ErrNotFound {
		t.Fatalf("get after delete: %v, want ErrNotFound", getErr)
	}

	// Several sweep cycles later the deletion must still hold everywhere:
	// anti-entropy propagates the tombstone instead of resurrecting the
	// value from a replica that missed the delete.
	c.settle(2 * time.Minute)
	for i, s := range c.stores {
		if s.HasLocal(key) {
			t.Fatalf("store %d still holds a live copy after delete", i)
		}
	}
	getErr = nil
	c.stores[2].Get(key, func(_ []byte, e error) { getErr = e })
	c.settle(15 * time.Second)
	if getErr != ErrNotFound {
		t.Fatalf("get long after delete: %v, want ErrNotFound", getErr)
	}
	// Deleting a missing key is an acked no-op.
	delErr = fmt.Errorf("not called")
	c.stores[3].Delete(id.New(0x404, 0x404), func(err error) { delErr = err })
	c.settle(15 * time.Second)
	if delErr != nil {
		t.Fatalf("delete of missing key: %v", delErr)
	}
}

// TestSyncTransfersOnlyDivergent is the anti-entropy contract: when two
// replicas diverge on d of n keys, reconciliation moves at most d values,
// not n, and steady-state sweeps move none at all.
func TestSyncTransfersOnlyDivergent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SweepInterval = 20 * time.Second
	c := newCluster(t, 2, 21, cfg)
	rng := rand.New(rand.NewSource(21))
	var keys []id.ID
	for i := 0; i < 40; i++ {
		key := id.Random(rng)
		keys = append(keys, key)
		c.stores[i%2].Put(key, []byte(fmt.Sprintf("v%d", i)), func(error) {})
		c.settle(2 * time.Second)
	}
	c.settle(time.Minute)
	for i := 0; i < 2; i++ {
		if got := c.stores[i].StoreStats().Objects; got != 40 {
			t.Fatalf("store %d holds %d objects, want 40", i, got)
		}
	}
	repaired := func() uint64 {
		return c.stores[0].Counters().SyncKeysRepaired + c.stores[1].Counters().SyncKeysRepaired
	}
	values := func() uint64 {
		var n uint64
		for _, s := range c.stores {
			cs := s.Counters()
			n += cs.ReplicasPushed + cs.SyncKeysRepaired
		}
		return n
	}

	// Steady state moves no values at all: only root digests cross the
	// wire.
	base := values()
	c.settle(time.Minute)
	if moved := values() - base; moved != 0 {
		t.Fatalf("steady-state sweeps moved %d values", moved)
	}

	// Diverge 6 of the 40 keys on node 0 only, behind the DHT's back.
	const divergent = 6
	repairedBefore := repaired()
	for i := 0; i < divergent; i++ {
		cur, ok := c.stores[0].Backend().Get(keys[i])
		if !ok {
			t.Fatalf("key %d missing from store 0", i)
		}
		c.stores[0].Backend().Apply(store.Object{
			Key: keys[i], Version: cur.Version + 1, Origin: 1,
			Value: []byte("diverged"),
		})
	}
	c.settle(time.Minute)
	moved := repaired() - repairedBefore
	if moved == 0 {
		t.Fatal("divergence never repaired")
	}
	if moved > divergent {
		t.Fatalf("moved %d values for %d divergent keys", moved, divergent)
	}
	for i := 0; i < divergent; i++ {
		o, ok := c.stores[1].Backend().Get(keys[i])
		if !ok || string(o.Value) != "diverged" {
			t.Fatalf("key %d not converged on store 1: %q (ok=%v)", i, o.Value, ok)
		}
	}
	// And the system returns to a clean steady state.
	repairedBefore = repaired()
	c.settle(time.Minute)
	if again := repaired() - repairedBefore; again != 0 {
		t.Fatalf("%d repairs after convergence", again)
	}
}

// TestPartitionHealConvergence partitions a cluster, updates objects on
// one side, heals, and requires the stale side to converge to the updated
// values through anti-entropy.
func TestPartitionHealConvergence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SweepInterval = 20 * time.Second
	c := newCluster(t, 10, 31, cfg)
	rng := rand.New(rand.NewSource(31))
	var keys []id.ID
	for i := 0; i < 30; i++ {
		key := id.Random(rng)
		keys = append(keys, key)
		c.stores[i%10].Put(key, []byte("old"), func(error) {})
		c.settle(2 * time.Second)
	}
	c.settle(30 * time.Second)

	// Split the first five nodes from the rest, briefly enough that the
	// overlay re-merges after the heal.
	sideA := make(map[string]bool)
	for _, s := range c.stores[:5] {
		sideA[s.Node().Ref().Addr] = true
	}
	c.nw.Faults().At(c.sim.Now(), 90*time.Second, netmodel.Fault{Partition: func(addr string) bool { return sideA[addr] }})
	c.settle(0) // armed before the puts below are sent

	// Update every key from inside side A; only keys whose root is
	// reachable there will ack.
	updated := make(map[int]bool)
	for i, key := range keys {
		i := i
		c.stores[0].Put(key, []byte("new"), func(err error) {
			if err == nil {
				updated[i] = true
			}
		})
	}
	c.settle(90 * time.Second)
	if len(updated) == 0 {
		t.Fatal("no update succeeded inside the partition")
	}
	// The window has closed: overlay re-merge plus several anti-entropy
	// sweeps.
	c.settle(5 * time.Minute)

	// Every successfully updated key must read "new" from the side that
	// never saw the write.
	for i := range updated {
		var got []byte
		var err error
		c.stores[7].Get(keys[i], func(v []byte, e error) { got, err = v, e })
		c.settle(20 * time.Second)
		if err != nil {
			t.Fatalf("get key %d after heal: %v", i, err)
		}
		if string(got) != "new" {
			t.Fatalf("key %d not converged after heal: %q", i, got)
		}
	}
}
