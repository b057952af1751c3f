package dht

import (
	"sort"

	"mspastry/internal/id"
	"mspastry/internal/pastry"
	"mspastry/internal/store"
)

// Merkle anti-entropy keeps replicas in step without re-pushing every value
// to every replica every sweep. Each sweep, a node groups its stored keys
// by replica neighbour and runs one exchange per neighbour:
//
//	initiator                         responder
//	SyncRoot(sid, arc, root)  ──►
//	                          ◄──  SyncRootOK(sid)            (in sync)
//	                          ◄──  SyncBuckets(sid, digests)  (divergent)
//	SyncKeys(arc, set, sums)  ──►
//	                          ◄──  Replicate(obj)…   responder's newer keys
//	                          ◄──  SyncPull(keys)    responder's stale keys
//	Replicate(obj)…           ──►
//
// In the common steady state the exchange is one ~50-byte message each
// way; values move only for keys that actually diverge. The responder is
// stateless — every message it answers carries the arc bounds and bucket
// set it needs — so only the initiator tracks rounds, and the next sweep
// ends them, also one whose responder died mid-exchange.
//
// The arc [lo, hi] is the minimal clockwise range covering the keys the
// initiator shares with this neighbour. Both sides digest the same
// explicit arc, so divergent leaf-set views cost only extra control
// traffic, never wrong state.

// syncRound is the initiator-side state of one exchange, keyed by a
// locally unique sid.
type syncRound struct {
	target pastry.NodeRef
	digest store.RangeDigest
}

// startSync opens an anti-entropy exchange with target covering keys.
func (s *Store) startSync(target pastry.NodeRef, keys []id.ID) {
	lo, hi, ok := store.MinimalArc(keys)
	if !ok {
		return
	}
	rd := store.SummarizeRange(s.backend, lo, hi)
	s.nextSync++
	s.syncRounds[s.nextSync] = &syncRound{target: target, digest: rd}
	s.counters.SyncRounds++
	s.sendControl(target, encode(&syncRoot{s.nextSync, lo, hi, rd.Root()}))
}

// sendControl sends a sync/handoff control message, charging its size to
// the digest and total maintenance byte counters.
func (s *Store) sendControl(to pastry.NodeRef, payload []byte) {
	s.counters.DigestBytes += uint64(len(payload))
	s.counters.MaintBytes += uint64(len(payload))
	s.node.SendDirect(to, payload)
}

// sendRepair sends one divergent object's value.
func (s *Store) sendRepair(to pastry.NodeRef, o store.Object) {
	payload := encode(&o)
	s.counters.SyncKeysRepaired++
	s.counters.MaintBytes += uint64(len(payload))
	s.node.SendDirect(to, payload)
}

// onSyncRoot (responder): digest the same arc and answer OK or buckets.
func (s *Store) onSyncRoot(from pastry.NodeRef, payload []byte) {
	var req syncRoot
	if !decode(payload, &req) {
		return
	}
	mine := store.SummarizeRange(s.backend, req.lo, req.hi)
	if mine.Root() == req.root {
		s.sendControl(from, encode(&ack{kindSyncRootOK, req.sid}))
		return
	}
	s.sendControl(from, encode(&syncBuckets{req.sid, mine.Buckets}))
}

// onSyncRootOK (initiator): the replicas agree; close the round.
func (s *Store) onSyncRootOK(payload []byte) {
	if agreed := (ack{kind: kindSyncRootOK}); decode(payload, &agreed) && s.syncRounds[agreed.id] != nil {
		delete(s.syncRounds, agreed.id)
		s.counters.SyncClean++
	}
}

// onSyncBuckets (initiator): diff the bucket layers and send per-key
// summaries for the divergent buckets.
func (s *Store) onSyncBuckets(payload []byte) {
	var layer syncBuckets
	if !decode(payload, &layer) {
		return
	}
	round, live := s.syncRounds[layer.sid]
	if !live {
		return
	}
	delete(s.syncRounds, layer.sid)
	theirs := store.RangeDigest{Lo: round.digest.Lo, Hi: round.digest.Hi, Buckets: layer.buckets}
	diff := round.digest.DiffBuckets(&theirs)
	if len(diff) == 0 {
		// The roots differed but the buckets agree: our state moved
		// between the two messages. The next sweep retries.
		return
	}
	var bitmap uint64
	for _, b := range diff {
		bitmap |= 1 << uint(b)
	}
	var sums []store.Summary
	s.backend.Range(func(o store.Object) bool {
		if id.InRangeCW(round.digest.Lo, round.digest.Hi, o.Key) &&
			bitmap&(1<<uint(store.BucketOf(o.Key))) != 0 {
			sums = append(sums, o.Summarize())
		}
		return true
	})
	sort.Slice(sums, func(i, j int) bool { return sums[i].Key.Less(sums[j].Key) })
	s.sendControl(round.target, encode(&syncKeys{round.digest.Lo, round.digest.Hi, bitmap, sums}))
}

// onSyncKeys (responder): compare the initiator's summaries against local
// state. Keys where our copy is newer — or that the initiator does not
// hold at all — are pushed back; keys where the initiator's copy is newer
// are pulled, but only if this node still believes the key is its to hold,
// so a sync can never widen a key's replica set.
func (s *Store) onSyncKeys(from pastry.NodeRef, payload []byte) {
	var theirs syncKeys
	if !decode(payload, &theirs) {
		return
	}
	members := s.node.Leaf().Members()
	k := ReplicationFactor
	listed := make(map[id.ID]bool, len(theirs.sums))
	var pulls []id.ID
	for _, sum := range theirs.sums {
		listed[sum.Key] = true
		local, have := s.backend.Get(sum.Key)
		switch {
		case !have || sum.Supersedes(local):
			if s.rankForKey(sum.Key, members) < k {
				pulls = append(pulls, sum.Key)
			}
		case local.Digest() != sum.Dig:
			// Differing copies order totally, so ours is the newer one.
			s.sendRepair(from, local)
		}
	}
	// Keys we hold in the divergent buckets that the initiator did not
	// list: it has no copy at all.
	s.backend.Range(func(o store.Object) bool {
		if id.InRangeCW(theirs.lo, theirs.hi, o.Key) &&
			theirs.bitmap&(1<<uint(store.BucketOf(o.Key))) != 0 && !listed[o.Key] {
			s.sendRepair(from, o)
		}
		return true
	})
	if len(pulls) > 0 {
		s.sendControl(from, encode(&syncPull{pulls}))
	}
}

// onSyncPull (initiator): ship the requested values.
func (s *Store) onSyncPull(from pastry.NodeRef, payload []byte) {
	var pull syncPull
	if !decode(payload, &pull) {
		return
	}
	for _, key := range pull.keys {
		if o, have := s.backend.Get(key); have {
			s.sendRepair(from, o)
		}
	}
}

// offerHandoff starts a digest-first responsibility handoff: send the
// object's summary to the current root and keep the value until the root
// answers. An unsolicited push of the full value would waste bandwidth
// when the root already has the object, and deleting the copy at once
// would risk losing the last one if the push were dropped.
func (s *Store) offerHandoff(o store.Object, members []pastry.NodeRef) {
	root, ok := s.closestMember(o.Key, members)
	if !ok {
		return
	}
	s.counters.HandoffOffers++
	sum := o.Summarize()
	s.sendControl(root, encode(&sum))
}

// onHandoffOffer (root side): ask for the value only if the offered copy
// supersedes ours or we have none.
func (s *Store) onHandoffOffer(from pastry.NodeRef, payload []byte) {
	var sum store.Summary
	if !decode(payload, &sum) {
		return
	}
	answer := handoffKey{kindHandoffHave, sum.Key}
	if local, have := s.backend.Get(sum.Key); !have || sum.Supersedes(local) {
		answer.kind = kindHandoffWant
	}
	s.sendControl(from, encode(&answer))
}

// onHandoffWant (offerer side): the root needs our copy; send it, then
// drop local responsibility.
func (s *Store) onHandoffWant(from pastry.NodeRef, payload []byte) {
	want := handoffKey{kind: kindHandoffWant}
	if !decode(payload, &want) {
		return
	}
	o, have := s.backend.Get(want.key)
	if !have {
		return
	}
	wire := encode(&o)
	s.counters.ReplicasPushed++
	s.counters.MaintBytes += uint64(len(wire))
	s.node.SendDirect(from, wire)
	s.dropIfForeign(want.key)
}

// onHandoffHave (offerer side): the root is already current; just drop.
func (s *Store) onHandoffHave(payload []byte) {
	if have := (handoffKey{kind: kindHandoffHave}); decode(payload, &have) {
		s.dropIfForeign(have.key)
	}
}

// dropIfForeign drops the local copy of key only if this node is still far
// outside the responsible set — the leaf set may have shifted since the
// offer went out, and a node that became responsible again must keep its
// copy.
func (s *Store) dropIfForeign(key id.ID) {
	if s.rankForKey(key, s.node.Leaf().Members()) >= 2*ReplicationFactor {
		s.backend.Drop(key)
		s.counters.SweepHandoffs++
	}
}
