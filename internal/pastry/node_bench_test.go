package pastry

import (
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/id"
)

// benchNode builds a node with a realistic amount of routing state.
func benchNode(b *testing.B, peers int) (*testNet, *Node, []NodeRef) {
	b.Helper()
	net := &testNet{
		sim:   eventsim.New(1),
		nodes: make(map[string]*Node),
		delay: time.Millisecond,
		sent:  make(map[Category]int),
	}
	rng := rand.New(rand.NewSource(1))
	self := id.Random(rng)
	env := &testEnv{net: net, addr: "b0", self: NodeRef{ID: self, Addr: "b0"}}
	cfg := DefaultConfig()
	n, err := NewNode(env.self, cfg, env, nil)
	if err != nil {
		b.Fatal(err)
	}
	net.nodes["b0"] = n
	n.Bootstrap()
	var refs []NodeRef
	for i := 0; i < peers; i++ {
		ref := NodeRef{ID: id.Random(rng), Addr: "peer"}
		refs = append(refs, ref)
		n.rt.AddWithRTT(ref, time.Duration(rng.Intn(100))*time.Millisecond)
		n.ls.Add(ref)
	}
	return net, n, refs
}

func BenchmarkNodeNextHop(b *testing.B) {
	_, n, _ := benchNode(b, 2000)
	rng := rand.New(rand.NewSource(2))
	keys := make([]id.ID, 1024)
	for i := range keys {
		keys[i] = id.Random(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.nextHop(keys[i%len(keys)], nil)
	}
}

func BenchmarkNodeReceiveLookupEnvelope(b *testing.B) {
	_, n, refs := benchNode(b, 2000)
	rng := rand.New(rand.NewSource(3))
	envs := make([]*Envelope, 256)
	for i := range envs {
		envs[i] = &Envelope{
			Xfer:    uint64(i),
			NeedAck: true,
			From:    refs[rng.Intn(len(refs))],
			Lookup: &Lookup{
				Key:    id.Random(rng),
				Seq:    uint64(i),
				Origin: refs[rng.Intn(len(refs))],
			},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := envs[i%len(envs)]
		lk := *e.Lookup
		env := *e
		env.Lookup = &lk
		n.Receive(&env)
	}
}

func BenchmarkNodeHandleLSProbe(b *testing.B) {
	_, n, refs := benchNode(b, 64)
	rng := rand.New(rand.NewSource(4))
	probes := make([]*LSProbe, 64)
	for i := range probes {
		leaves := make([]NodeRef, 16)
		for j := range leaves {
			leaves[j] = refs[rng.Intn(len(refs))]
		}
		probes[i] = &LSProbe{From: refs[rng.Intn(len(refs))], Leaves: leaves}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Receive(probes[i%len(probes)])
	}
}

func BenchmarkLeafSetAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	self := id.Random(rng)
	refs := make([]NodeRef, 4096)
	for i := range refs {
		refs[i] = NodeRef{ID: id.Random(rng), Addr: "x"}
	}
	ls := NewLeafSet(self, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls.Add(refs[i%len(refs)])
	}
}

func BenchmarkSolveTrt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		solveTrt(0.05, 30, 3, 1.2e-4, 2.57, 2, 9, 3600)
	}
}

// BenchmarkLeafSetMembers measures the deduplicated member enumeration
// that routing fallback, delivery guards, probing and the dht sweeps all
// call — one of the hottest read paths in the node.
func BenchmarkLeafSetMembers(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	self := id.Random(rng)
	ls := NewLeafSet(self, 32)
	for i := 0; i < 4096; i++ {
		ls.Add(NodeRef{ID: id.Random(rng), Addr: "x"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(ls.Members())
	}
	_ = sink
}

// BenchmarkMessageWireSize measures the per-send size accounting the
// simulated network charges every message (netmodel Send).
func BenchmarkMessageWireSize(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	leaves := make([]NodeRef, 16)
	for i := range leaves {
		leaves[i] = NodeRef{ID: id.Random(rng), Addr: "12345"}
	}
	msgs := []Message{
		&Ack{Xfer: 12345, From: leaves[0], TrtHint: 30 * time.Second},
		&Heartbeat{From: leaves[1], TrtHint: 30 * time.Second},
		&Envelope{
			Xfer: 9, NeedAck: true, From: leaves[2], TrtHint: 30 * time.Second,
			Lookup: &Lookup{Key: id.Random(rng), Seq: 77, Origin: leaves[3]},
		},
		&LSProbe{From: leaves[4], Leaves: leaves, TrtHint: 30 * time.Second},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += MessageWireSize(msgs[i%len(msgs)])
	}
	_ = sink
}
