package pastry

import (
	"fmt"
	"testing"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/peer"
)

// TestStrangerRecordsExpire pins the fix for the unbounded-stranger
// leak: a sender that never makes it into routing state used to leave
// immortal lastRecv/lastSent entries behind. The registry now
// short-expires never-admitted records (StrangerTTL), and strangers the
// failure detector gives up on are expelled once the reconnect cache has
// spent its retries on them, so a burst of contact from peers that never
// join leaves no trace in the end.
func TestStrangerRecordsExpire(t *testing.T) {
	net := newTestNet(t, 11)
	cfg := testConfig()
	cfg.PeerStrangerTTL = 30 * time.Second
	nodes := buildOverlay(t, net, 8, cfg)
	n := nodes[0]
	base := n.Peers().Len()

	var strangers []NodeRef
	for i := 0; i < 24; i++ {
		ref := NodeRef{ID: id.Random(net.sim.Rand()), Addr: fmt.Sprintf("stranger%d", i)}
		strangers = append(strangers, ref)
		n.noteContact(ref, 0)
	}
	if n.Peers().Len() <= base {
		t.Fatalf("stranger contact created no records (len %d, base %d)", n.Peers().Len(), base)
	}

	// Probes to the fake addresses vanish (the test net drops sends to
	// unknown addrs), so none of the strangers is ever admitted. The
	// longest thing keeping a record alive is the reconnect cache, which
	// probes one parked peer per reconnectInterval until each has had
	// reconnectRetries; after that the stranger TTL is long past and the
	// next sweep must evict every record.
	net.run(2*cfg.Tls + time.Duration(len(strangers)*(reconnectRetries+1))*reconnectInterval +
		cfg.PeerStrangerTTL + 3*cfg.TickInterval)
	for _, ref := range strangers {
		if rec := n.Peers().Lookup(ref.ID); rec != nil {
			t.Errorf("stranger %v still has a record (admitted=%v)", ref.ID, rec.Admitted())
		}
	}
	st := n.Peers().Stats()
	if st.EvictedStrangers+st.Expelled == 0 {
		t.Fatalf("no stranger evictions recorded: %+v", st)
	}
}

// TestPeerStateIsShared: the hint, the suppression memory and the RTT
// estimator live in the record's State, and each slot still keeps its own
// lifecycle. A component created after its slot was emptied starts from
// zero even though the State it lives in carried on.
func TestPeerStateIsShared(t *testing.T) {
	n := newTestNode(t, id.New(1<<60, 0))
	ref := NodeRef{ID: id.New(5<<40, 5), Addr: "p"}
	slots := []peer.Slot{n.slotHint, n.slotSuppress, n.slotRTT}
	var base []int
	for _, s := range slots {
		base = append(base, n.peers.SlotCount(s))
	}
	n.rt.Add(ref)
	rec := n.peers.Obtain(ref.ID, ref.Addr, time.Second)
	n.setTrtHint(rec, time.Minute)
	n.suppressOf(rec).DistProbed = time.Second
	n.rttOf(rec).Observe(40 * time.Millisecond)
	st := &rec.State
	for _, s := range slots {
		if got := rec.Get(s); got != st {
			t.Fatalf("slot %v holds %v, want the record's own %p", s, got, st)
		}
	}
	rto := n.rtoFor(ref)

	// The peer leaves routing state: the next sweep prunes its hint, and
	// the suppression memory (still fresh) and the estimator stay.
	n.rt.Remove(ref.ID)
	n.peers.Sweep(2*time.Second, n.peerIsMember)
	if rec.Get(n.slotHint) != nil {
		t.Fatal("the hint survived its peer leaving routing state")
	}
	if rec.Get(n.slotSuppress) != st || rec.Get(n.slotRTT) != st ||
		st.Suppress.DistProbed != time.Second || n.rtoFor(ref) != rto {
		t.Fatalf("pruning the hint disturbed the other components: %+v", *st)
	}

	// A hint set again lands in the record's State and reads back alone.
	n.setTrtHint(rec, 30*time.Second)
	n.clearSlot(ref.ID, n.slotHint)
	n.setTrtHint(rec, 45*time.Second)
	if got := rec.Get(n.slotHint); got != st || st.TrtHint != 45*time.Second {
		t.Fatalf("hint slot after clear holds %v reading %v, want %p reading 45s", got, st.TrtHint, st)
	}

	// Memory created after its slot emptied is zero, whatever the State
	// held before.
	s := n.suppressOf(rec)
	s.LSCandidate, s.LastRepair = time.Second, time.Second
	n.clearSlot(ref.ID, n.slotSuppress)
	if got := *n.suppressOf(rec); got != (peer.Suppress{}) {
		t.Fatalf("suppression memory after its slot drained reads %+v, want zero", got)
	}
	n.clearSlot(ref.ID, n.slotRTT)
	if got := *n.rttOf(rec); got != (peer.RTT{}) {
		t.Fatalf("estimator created after its slot emptied reads %+v, want zero", got)
	}

	// All three slots drain while the record lives on: the State keeps
	// every field, and each component created again reads zero, never a
	// stale hint, suppression timestamp or RTT sample.
	n.setTrtHint(rec, time.Minute)
	s = n.suppressOf(rec)
	s.DistProbed, s.LSCandidate, s.LastRepair = time.Second, time.Second, time.Second
	n.rttOf(rec).Observe(40 * time.Millisecond)
	for _, sl := range slots {
		n.clearSlot(ref.ID, sl)
	}
	if n.peers.Lookup(ref.ID) != rec || *st == (peer.State{}) {
		t.Fatal("the record or its State's fields went with the slots")
	}
	n.setTrtHint(rec, 0)
	if got := *n.suppressOf(rec); got != (peer.Suppress{}) {
		t.Fatalf("suppression memory after every slot drained reads %+v, want zero", got)
	}
	if got := *n.rttOf(rec); got != (peer.RTT{}) {
		t.Fatalf("estimator after every slot drained reads %+v, want zero", got)
	}
	if *st != (peer.State{}) {
		t.Fatalf("State with every component created again reads %+v, want zero", *st)
	}
	if got := n.rtoFor(ref); got == rto {
		t.Fatalf("RTO %v after the estimator was created again still reflects the old sample", got)
	}

	// Out of routing state and idle past the admitted TTL: the sweep
	// drains the all-zero suppression memory just created, and the record
	// goes, and every slot count with it.
	n.clearSlot(ref.ID, n.slotHint)
	if rec.Get(n.slotSuppress) == nil {
		t.Fatal("the suppression slot is empty before the sweep; the test no longer shows it pruned")
	}
	if evicted := n.peers.Sweep(time.Hour, n.peerIsMember); evicted != 1 {
		t.Fatalf("evicted %d records, want the peer's", evicted)
	}
	if n.peers.Lookup(ref.ID) != nil {
		t.Fatal("the peer's record survived")
	}
	for i, s := range slots {
		if got := n.peers.SlotCount(s); got != base[i] {
			t.Errorf("slot %v counts %d after eviction, want %d", s, got, base[i])
		}
	}
}

// TestPeerStateAllocations: a peer's first hint, suppression write and RTT
// sample allocate nothing. The three live in the record's inline State and
// each slot points into it, and a pointer stored in an interface is not
// boxed, so the record Obtain made is the only object a peer costs.
func TestPeerStateAllocations(t *testing.T) {
	n := newTestNode(t, id.New(1<<60, 0))
	recs := make([]*peer.Record, 101) // AllocsPerRun calls once to warm up
	for i := range recs {
		recs[i] = n.peers.Obtain(id.New(uint64(i)+1, 0), "p", time.Second)
	}
	next := 0
	if got := testing.AllocsPerRun(len(recs)-1, func() {
		rec := recs[next]
		next++
		n.setTrtHint(rec, time.Minute)
		n.suppressOf(rec).DistProbed = time.Second
		n.rttOf(rec).Observe(40 * time.Millisecond)
	}); got != 0 {
		t.Errorf("first hint, suppression write and RTT sample: %v allocs, want 0", got)
	}
}
