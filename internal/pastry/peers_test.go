package pastry

import (
	"fmt"
	"testing"
	"time"

	"mspastry/internal/id"
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
