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
// estimator share one peerState, and each slot still keeps its own
// lifecycle. A component created after its slot was emptied starts from
// zero even though the state it lives in carried on.
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
	n.suppressOf(rec).distProbed = time.Second
	n.rttOf(rec).observe(40 * time.Millisecond)
	st := stateIn(rec, n.slotHint)
	for _, s := range slots {
		if got := stateIn(rec, s); got == nil || got != st {
			t.Fatalf("slot %v holds %p, want the shared %p", s, got, st)
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
	if stateIn(rec, n.slotSuppress) != st || stateIn(rec, n.slotRTT) != st ||
		st.suppress.distProbed != time.Second || n.rtoFor(ref) != rto {
		t.Fatalf("pruning the hint disturbed the other components: %+v", *st)
	}

	// A hint set again lands in the shared state and reads back alone.
	n.setTrtHint(rec, 30*time.Second)
	n.clearSlot(ref.ID, n.slotHint)
	n.setTrtHint(rec, 45*time.Second)
	if got := stateIn(rec, n.slotHint); got != st || st.hint != 45*time.Second {
		t.Fatalf("hint slot after clear holds %p reading %v, want the shared %p reading 45s", got, st.hint, st)
	}

	// Memory created after its slot emptied is zero, whatever the state
	// held before.
	s := n.suppressOf(rec)
	s.lsCandidate, s.lastRepair = time.Second, time.Second
	n.clearSlot(ref.ID, n.slotSuppress)
	if got := *n.suppressOf(rec); got != (suppressState{}) {
		t.Fatalf("suppression memory after its slot drained reads %+v, want zero", got)
	}
	n.clearSlot(ref.ID, n.slotRTT)
	if got := *n.rttOf(rec); got != (rttEstimator{}) {
		t.Fatalf("estimator created after its slot emptied reads %+v, want zero", got)
	}

	// Out of routing state and idle past the admitted TTL, with the
	// suppression memory drained: the record goes, and every slot count
	// with it.
	n.clearSlot(ref.ID, n.slotHint)
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
// sample cost one object beside its record, the peerState they share.
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
		n.suppressOf(rec).distProbed = time.Second
		n.rttOf(rec).observe(40 * time.Millisecond)
	}); got != 1 {
		t.Errorf("first hint, suppression write and RTT sample: %v allocs, want 1", got)
	}
}
