package dht

import (
	"slices"

	"mspastry/internal/hotspot"
	"mspastry/internal/id"
	"mspastry/internal/pastry"
	"mspastry/internal/store"
)

// Hotspot mitigation: popularity-aware path caching. Gets are routed as
// kindGetVia lookups that accumulate caching hops (the route's first and
// penultimate node); the root answers with a versioned kindCachedReply
// and, once the key's popularity-sketch estimate crosses hotThreshold,
// deposits the entry on those hops. Later lookups for the key
// short-circuit from any hop holding a fresh copy, so a zipf hotspot's
// traffic is absorbed near its origins instead of all landing on the
// key's root. A Get that bypasses caching takes no part in any of this:
// no hop serves or records it, its root deposits nothing for it, and its
// reply enters no cache and raises no read floor.
//
// Staleness is bounded by one sweep interval: writes invalidate by
// version supersession (the root notifies recorded deposit targets, and
// replica pushes invalidate the local cache), caching hops refuse to
// serve entries older than Config.SweepInterval, and the sweep purges
// anything that slipped past as a backstop. Per-client read floors
// additionally give monotonic reads: a cached reply below a version the
// client already observed is rejected and refetched authoritatively.

// hotThreshold is the sketch estimate at which the root starts depositing
// a key's replies on its caching hops.
const hotThreshold = 4

const (
	// maxDepositKeys bounds the root's memory of where it deposited
	// entries; maxDepositTargets bounds the per-key target list.
	maxDepositKeys    = 1024
	maxDepositTargets = 4
	// maxFloorKeys bounds the per-key monotonic read floors a client
	// remembers.
	maxFloorKeys = 4096
)

// versionFloor is the highest version vector a client has observed for
// a key.
type versionFloor struct {
	version, origin uint64
}

// hotState is the per-node hotspot machinery, nil unless
// Config.CacheEntries > 0.
type hotState struct {
	cache *hotspot.Cache

	// deposits remembers which peers this node (as a root) deposited
	// each key on, so writes can invalidate them; depositOrder is the
	// FIFO eviction queue (it may briefly hold keys already dropped by
	// invalidation — those pop harmlessly).
	deposits     map[id.ID][]pastry.NodeRef
	depositOrder []id.ID

	// floors is this node's (as a client) monotonic read floor per key;
	// floorOrder is its FIFO eviction queue.
	floors     map[id.ID]versionFloor
	floorOrder []id.ID
}

func newHotState(cfg Config) *hotState {
	return &hotState{
		cache:    hotspot.New(hotspot.Config{Capacity: cfg.CacheEntries, Admission: true}),
		deposits: make(map[id.ID][]pastry.NodeRef),
		floors:   make(map[id.ID]versionFloor),
	}
}

// recordDeposit remembers that key was deposited on ref, bounding both
// the key set and the per-key target list.
func (h *hotState) recordDeposit(key id.ID, ref pastry.NodeRef) {
	targets, tracked := h.deposits[key]
	if !tracked {
		for len(h.deposits) >= maxDepositKeys && len(h.depositOrder) > 0 {
			old := h.depositOrder[0]
			h.depositOrder = h.depositOrder[1:]
			delete(h.deposits, old)
		}
		h.depositOrder = append(h.depositOrder, key)
	}
	if i := slices.IndexFunc(targets, func(t pastry.NodeRef) bool { return t.ID == ref.ID }); i >= 0 {
		targets[i] = ref
		return
	}
	if len(targets) >= maxDepositTargets {
		copy(targets, targets[1:])
		targets[len(targets)-1] = ref
		return
	}
	h.deposits[key] = append(targets, ref)
}

// belowFloor reports whether (version, origin) is strictly older than a
// version this client already read for key.
func (h *hotState) belowFloor(key id.ID, version, origin uint64) bool {
	f, ok := h.floors[key]
	return ok && hotspot.Newer(f.version, f.origin, version, origin)
}

// raiseFloor records that the client observed (version, origin) for key.
func (h *hotState) raiseFloor(key id.ID, version, origin uint64) {
	if f, tracked := h.floors[key]; tracked {
		if hotspot.Newer(version, origin, f.version, f.origin) {
			h.floors[key] = versionFloor{version, origin}
		}
		return
	}
	if len(h.floorOrder) >= maxFloorKeys {
		old := h.floorOrder[0]
		h.floorOrder = h.floorOrder[1:]
		delete(h.floors, old)
	}
	h.floors[key] = versionFloor{version, origin}
	h.floorOrder = append(h.floorOrder, key)
}

// CacheStats returns the hotspot cache's counters (zero value when
// caching is disabled).
func (s *Store) CacheStats() hotspot.Stats {
	if s.hot == nil {
		return hotspot.Stats{}
	}
	return s.hot.cache.Stats()
}

// hotspotForward is the Forward hook for kindGetVia lookups: serve from
// the local cache if a fresh copy is held (consuming the lookup), else
// record this node as a caching hop and let it route on.
func (s *Store) hotspotForward(lk *pastry.Lookup) bool {
	self := s.node.Ref()
	if lk.Origin.ID == self.ID {
		return true // origin's own first routing step: nothing cached upstream
	}
	var get getVia
	if !decode(lk.Payload, &get) || get.bypass {
		return true
	}
	if e, hit := s.hot.cache.Get(lk.Key); hit {
		if s.env.Now()-e.StoredAt <= s.cfg.SweepInterval {
			s.counters.CacheServes++
			s.node.SendDirect(lk.Origin, encode(&cachedReply{reqID: get.reqID, found: true, fromCache: true,
				version: e.Version, origin: e.Origin, value: e.Value}))
			return false
		}
		s.hot.cache.Delete(lk.Key) // expired: forward and refill from the root
	}
	me := via{self.ID, self.Addr}
	for _, v := range get.vias {
		if v.id == me.id {
			return true // already recorded (held or rerouted lookup)
		}
	}
	if len(get.vias) < maxVia {
		// Slot 0 is the route's first hop...
		get.vias = append(get.vias, me)
	} else {
		// ...and slot 1, overwritten at every later hop, ends up the
		// penultimate one.
		get.vias[maxVia-1] = me
	}
	// Replace the payload rather than mutating it: the transport may
	// alias the same backing array across in-flight copies.
	lk.Payload = encode(&get)
	return true
}

// deliverGetVia answers a Get at the key's root and, unless it bypasses
// caching, deposits hot entries on the route's caching hops. It runs even
// when this node has caching disabled, so mixed clusters interoperate.
func (s *Store) deliverGetVia(lk *pastry.Lookup) {
	var get getVia
	if !decode(lk.Payload, &get) {
		return
	}
	o, found := s.backend.Get(lk.Key)
	found = found && !o.Tombstone
	if !found {
		o = store.Object{}
	}
	s.reply(lk.Origin, encode(&cachedReply{reqID: get.reqID, found: found, bypass: get.bypass,
		version: o.Version, origin: o.Origin, value: o.Value}))
	if found && s.hot != nil && !get.bypass {
		s.maybeDeposit(lk.Key, o, get.vias, lk.Origin)
	}
}

// maybeDeposit pushes the object onto the lookup's recorded caching
// hops once the key's popularity estimate crosses the hot threshold.
func (s *Store) maybeDeposit(key id.ID, o store.Object, vias []via, origin pastry.NodeRef) {
	s.hot.cache.Touch(key)
	if s.hot.cache.Estimate(key) < hotThreshold {
		return
	}
	var payload []byte
	self := s.node.Ref().ID
	for _, v := range vias {
		if v.id.IsZero() || v.id == self || v.id == origin.ID {
			continue
		}
		if payload == nil {
			payload = encode(&hotspot.Entry{Key: key, Version: o.Version, Origin: o.Origin, Value: o.Value})
		}
		ref := pastry.NodeRef{ID: v.id, Addr: v.addr}
		s.counters.CacheDeposits++
		s.node.SendDirect(ref, payload)
		s.hot.recordDeposit(key, ref)
	}
}

// onCachedReply completes a pending Get from its reply. Unless the Get
// bypassed caching, it caches the value locally and enforces the
// monotonic read floor: a cached reply below a version this client
// already read is refused and the operation retried authoritatively.
func (s *Store) onCachedReply(payload []byte) {
	var reply cachedReply
	if !decode(payload, &reply) {
		return
	}
	op, live := s.pending[reply.reqID]
	if !live || op.kind != kindGetVia {
		return
	}
	if s.hot != nil && !reply.bypass {
		if reply.found {
			if reply.fromCache && s.hot.belowFloor(op.key, reply.version, reply.origin) {
				s.counters.CacheStaleRejected++
				op.Stop()
				op.fresh = true
				s.sendOp(op)
				return
			}
			s.hot.raiseFloor(op.key, reply.version, reply.origin)
			if reply.fromCache {
				// Serve hearsay, never re-cache it: a value relayed by
				// another cache left its root up to a sweep interval ago,
				// and stamping it with a fresh StoredAt here would chain
				// that age across hops without bound. Only root-sourced
				// data (authoritative replies, deposits) enters caches,
				// which is what keeps every entry's staleness inside one
				// sweep interval plus delivery.
				s.counters.CacheHitsRemote++
			} else {
				s.hot.cache.Put(hotspot.Entry{
					Key: op.key, Version: reply.version, Origin: reply.origin,
					Value: append([]byte(nil), reply.value...), StoredAt: s.env.Now(),
				})
			}
		} else if !reply.fromCache {
			// The root says the key is gone; drop any cached copy.
			s.hot.cache.Delete(op.key)
		}
	}
	if reply.found {
		s.finish(reply.reqID, reply.value, nil)
	} else {
		s.finish(reply.reqID, nil, ErrNotFound)
	}
}

// onDeposit caches an entry pushed by a key's root, subject to
// frequency admission.
func (s *Store) onDeposit(payload []byte) {
	var e hotspot.Entry
	if s.hot != nil && decode(payload, &e) {
		e.StoredAt = s.env.Now()
		s.hot.cache.Put(e)
	}
}

// onInvalidate drops a cached entry superseded by a newer write.
func (s *Store) onInvalidate(payload []byte) {
	var inv invalidate
	if s.hot != nil && decode(payload, &inv) {
		s.hot.cache.InvalidateUnder(inv.key, inv.version, inv.origin)
	}
}

// invalidateCached runs at the root after applying a write: drop any
// local cached copy the new object supersedes and notify the peers the
// old value was deposited on.
func (s *Store) invalidateCached(o store.Object) {
	if s.hot == nil {
		return
	}
	s.hot.cache.InvalidateUnder(o.Key, o.Version, o.Origin)
	targets, ok := s.hot.deposits[o.Key]
	if !ok {
		return
	}
	delete(s.hot.deposits, o.Key)
	payload := encode(&invalidate{o.Key, o.Version, o.Origin})
	for _, t := range targets {
		s.counters.CacheInvalidations++
		s.node.SendDirect(t, payload)
	}
}

// purgeHotspot is the per-sweep backstop: evict every cached entry
// older than one sweep interval. Per-peer deposit state needs no sweep
// pass of its own — the peer registry's eviction broadcast (subscribed
// in New) drops a peer's deposit records the moment the node evicts it.
func (s *Store) purgeHotspot() {
	if s.hot != nil {
		s.hot.cache.PurgeOlderThan(s.env.Now() - s.cfg.SweepInterval)
	}
}

// dropDepositTarget removes x from every key's deposit target list: an
// evicted peer can no longer be chosen as a caching hop, so invalidating
// it is pointless and remembering it forever leaks. Runs from the peer
// registry's eviction broadcast.
func (s *Store) dropDepositTarget(x id.ID) {
	for key, targets := range s.hot.deposits {
		kept := slices.DeleteFunc(targets, func(t pastry.NodeRef) bool { return t.ID == x })
		if len(kept) == 0 {
			delete(s.hot.deposits, key)
		} else {
			s.hot.deposits[key] = kept
		}
	}
}
