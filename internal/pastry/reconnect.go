package pastry

import (
	"time"

	"mspastry/internal/peer"
)

// Reconnect cache: markFaulty purges a peer from all routing state, and
// once every node on one side of a network partition has purged every
// node on the other side, no message ever crosses the cut again — the
// overlay stays split forever after the partition heals. To degrade
// gracefully, each node remembers recently purged peers and re-probes one
// of them at a slow, bounded rate. Crash-failed peers cost a few extra
// pings before their record expires; partitioned peers answer once the
// network heals, and the normal direct-contact re-admission path merges
// the rings back together.
//
// The cache lives in the peer registry's graveyard slot: one graveRecord
// per remembered peer, kept alive (the slot vetoes record eviction) until
// the peer answers a reconnect probe or exhausts its retries. Expiry goes
// through Registry.Expel, which broadcasts the final eviction to every
// registered component — transports drop resolved addresses, the DHT its
// deposit records — in place of the old point-to-point PeerEvictor hook.

// graveRecord remembers one purged peer.
type graveRecord struct {
	ref     NodeRef
	lastTry time.Duration
	tries   int
}

// rememberFailed adds ref to the reconnect cache unless it is already
// there; when the cache is full, the most-retried record (the one closest
// to expiry) is evicted.
func (n *Node) rememberFailed(ref NodeRef) {
	now := n.env.Now()
	rec := n.peers.Obtain(ref.ID, ref.Addr, now)
	if rec.Get(n.slotGrave) != nil {
		return
	}
	if n.peers.SlotCount(n.slotGrave) >= reconnectCacheSize {
		var victim *graveRecord
		var victimRec *peer.Record
		n.peers.Each(func(r *peer.Record) {
			g, _ := r.Get(n.slotGrave).(*graveRecord)
			if g == nil {
				return
			}
			if victim == nil || g.tries > victim.tries ||
				(g.tries == victim.tries && g.ref.ID.Cmp(victim.ref.ID) > 0) {
				victim, victimRec = g, r
			}
		})
		n.peers.Put(victimRec, n.slotGrave, nil)
		n.peers.Expel(victim.ref.ID, victim.ref.Addr)
	}
	n.peers.Put(rec, n.slotGrave, &graveRecord{ref: ref, lastTry: now})
}

// forgetFailed drops ref's reconnect record (direct contact proved it
// alive, or it re-entered routing state).
func (n *Node) forgetFailed(ref NodeRef) {
	n.clearSlot(ref.ID, n.slotGrave)
}

// retryReconnect probes the least-recently-tried cache record, expiring
// records that have exhausted their retry budget. Ties break on the
// identifier so replays are deterministic despite map iteration order.
func (n *Node) retryReconnect(now time.Duration) {
	var rec *graveRecord
	n.peers.Each(func(r *peer.Record) {
		g, _ := r.Get(n.slotGrave).(*graveRecord)
		if g == nil {
			return
		}
		if rec == nil || g.lastTry < rec.lastTry ||
			(g.lastTry == rec.lastTry && g.ref.ID.Cmp(rec.ref.ID) < 0) {
			rec = g
		}
	})
	if rec == nil {
		return
	}
	if rec.tries >= reconnectRetries {
		n.clearSlot(rec.ref.ID, n.slotGrave)
		n.peers.Expel(rec.ref.ID, rec.ref.Addr)
		return
	}
	rec.tries++
	rec.lastTry = now
	n.probeReconnect(rec.ref)
}

// probeReconnect pings a peer previously marked faulty. The failure
// record is lifted so the probe is not suppressed; if the probe times
// out it is restored without re-counting the failure (the peer was
// counted when first marked faulty) and without an announcement.
func (n *Node) probeReconnect(ref NodeRef) {
	if _, ok := n.probing[ref.ID]; ok {
		return
	}
	n.unsetFailed(ref.ID)
	n.startProbe(probeState{ref: ref, reconnect: true})
}
