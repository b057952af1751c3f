// Package dht implements a replicated key-value store over MSPastry, in
// the style of the archival stores the paper cites as overlay applications
// (PAST, CFS). An object lives on its key's root node and is replicated to
// the k-1 nodes closest to the key; replication is maintained as soft
// state against churn, so objects survive root failures.
//
// Objects are versioned (see package store): the root assigns a per-key
// monotonic version to every write, deletes are tombstones that propagate
// like writes, and replicas merge under a total order, so the replica set
// converges regardless of message ordering. Replication maintenance is
// Merkle anti-entropy: each sweep the responsible nodes exchange range
// digests with their replica neighbours and transfer only the keys that
// actually diverge, instead of re-pushing every value every sweep.
//
// The store demonstrates the paper's remark that "applications that
// require guaranteed delivery can use end-to-end acks and
// retransmissions": every Put, Get and Delete is acknowledged end-to-end
// by the responsible node and retried by the requester until it succeeds
// or the retry budget is exhausted.
package dht

import (
	"errors"
	"reflect"
	"sort"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/pastry"
	"mspastry/internal/store"
)

// Config tunes the store.
type Config struct {
	// SweepInterval is how often each node re-checks responsibility for
	// its stored objects and reconciles replicas.
	SweepInterval time.Duration
	// Backend supplies object storage. nil means a fresh in-memory
	// backend; live nodes pass a disk-backed store to survive restarts.
	Backend store.Backend
	// CacheEntries enables hotspot path caching (see hotspot.go) and
	// bounds the cache's entry count. Zero disables the subsystem: Gets
	// bypass every cache on the way to the key's root, and the store
	// still serves caching peers' reads as a hop or a root.
	CacheEntries int
}

// DefaultConfig returns k=3 replication with 30-second anti-entropy
// sweeps.
func DefaultConfig() Config {
	return Config{SweepInterval: 30 * time.Second}
}

const (
	// ReplicationFactor k is the number of nodes holding each object (the
	// root plus k-1 leaf-set neighbours).
	ReplicationFactor = 3
	// requestTimeout is the end-to-end ack timeout for Put/Get/Delete.
	requestTimeout = 10 * time.Second
	// maxRetries bounds end-to-end retransmissions of one operation.
	maxRetries = 4
	// writeHorizon is how long a root remembers the last write it applied
	// to a key from one origin (Store.applied): an operation's lifetime,
	// after which no copy of an older write from that origin is in flight.
	writeHorizon = (maxRetries + 1) * requestTimeout
)

// ErrTimeout reports an operation whose retries were exhausted.
var ErrTimeout = errors.New("dht: request timed out")

// ErrNotFound reports a Get for a key no responsible node holds.
var ErrNotFound = errors.New("dht: key not found")

// Store is one DHT node. It implements pastry.App; all methods must run in
// the node's Env context.
type Store struct {
	node    *pastry.Node
	env     pastry.Env
	cfg     Config
	backend store.Backend
	// origin stamps this node's identity into the versions it assigns.
	origin uint64

	nextReq uint64
	pending map[uint64]*pendingOp

	// applied holds, per key and origin, the newest write this node
	// applied as the key's root and when (lateWrite); noteWrite drops the
	// expired ones once per writeHorizon, at forgetAt. It is the root's
	// own memory: replicas do not carry it, so a new root after a handoff
	// starts without it.
	applied  map[writeFrom]appliedWrite
	forgetAt time.Duration

	nextSync   uint64
	syncRounds map[uint64]*syncRound

	// sweepAlarm is the sweep's timer slot, re-armed by every sweep.
	sweepAlarm pastry.Alarm

	// hot is the hotspot path-caching state, nil when disabled.
	hot *hotState

	counters Counters
}

// Counters tallies the store's activity and outcomes for telemetry. Each
// field's metric and help tags name and describe the gauge a live node
// exports it as (telemetry.Registry.SetGauges).
type Counters struct {
	// Puts, Gets and Deletes count operations started; the outcome fields
	// count how they finished.
	Puts        uint64 `metric:"mspastry_dht_puts" help:"DHT put operations started."`
	Gets        uint64 `metric:"mspastry_dht_gets" help:"DHT get operations started."`
	Deletes     uint64 `metric:"mspastry_dht_deletes" help:"DHT delete operations started."`
	PutOK       uint64 `metric:"mspastry_dht_put_ok" help:"DHT puts acknowledged end-to-end."`
	PutFail     uint64 `metric:"mspastry_dht_put_failures" help:"DHT puts that exhausted retries."`
	GetOK       uint64 `metric:"mspastry_dht_get_ok" help:"DHT gets that returned a value."`
	GetNotFound uint64 `metric:"mspastry_dht_get_notfound" help:"DHT gets for absent keys."`
	GetFail     uint64 `metric:"mspastry_dht_get_failures" help:"DHT gets that exhausted retries."`
	DeleteOK    uint64 `metric:"mspastry_dht_delete_ok" help:"DHT deletes acknowledged end-to-end."`
	DeleteFail  uint64 `metric:"mspastry_dht_delete_failures" help:"DHT deletes that exhausted retries."`
	Retries     uint64 `metric:"mspastry_dht_retries" help:"End-to-end request retransmissions."`
	// ReplicasPushed counts full-value pushes (write-time replication,
	// accepted handoffs); ReplicasApplied counts incoming values that
	// actually changed local state.
	ReplicasPushed  uint64 `metric:"mspastry_dht_replicas_pushed" help:"Full-value replica pushes to leaf-set neighbours."`
	ReplicasApplied uint64 `metric:"mspastry_dht_replicas_applied" help:"Incoming replica values that changed local state."`
	// Sweeps counts replica responsibility sweeps; SweepHandoffs counts
	// objects dropped after handing responsibility to the current root.
	Sweeps        uint64 `metric:"mspastry_dht_sweeps" help:"Replica responsibility sweeps run."`
	SweepHandoffs uint64 `metric:"mspastry_dht_sweep_handoffs" help:"Objects handed off and dropped by sweeps."`
	// HandoffOffers counts digest-first handoff offers sent.
	HandoffOffers uint64 `metric:"mspastry_dht_handoff_offers" help:"Digest-first handoff offers sent."`
	// SyncRounds counts anti-entropy exchanges started; SyncClean counts
	// rounds where the root digests matched (no transfer at all);
	// SyncKeysRepaired counts divergent objects sent as repairs.
	SyncRounds       uint64 `metric:"mspastry_dht_sync_rounds" help:"Anti-entropy exchanges started."`
	SyncClean        uint64 `metric:"mspastry_dht_sync_clean" help:"Anti-entropy exchanges where root digests matched."`
	SyncKeysRepaired uint64 `metric:"mspastry_dht_sync_keys_repaired" help:"Divergent objects sent as anti-entropy repairs."`
	// DigestBytes is the wire volume of sync/handoff control traffic
	// (digests, summaries, pulls); MaintBytes is all maintenance bytes
	// sent by sweeps — control plus repair values — and is the number the
	// anti-entropy experiment holds against the cost of re-pushing every
	// value every sweep.
	DigestBytes uint64 `metric:"mspastry_dht_sync_digest_bytes" help:"Anti-entropy and handoff control bytes sent."`
	MaintBytes  uint64 `metric:"mspastry_dht_maintenance_bytes" help:"All sweep maintenance bytes sent (control plus repair values)."`
	// Hotspot path caching. CacheHitsLocal counts Gets answered from
	// this node's own cache without entering the overlay; CacheHitsRemote
	// counts Gets answered by a caching hop short-circuiting the route;
	// CacheServes counts lookups this node answered from its cache on
	// behalf of others. CacheDeposits / CacheInvalidations count entries
	// pushed to and revoked from caching hops as a root. CacheStaleRejected
	// counts cached replies refused for violating a client's monotonic
	// read floor. The sweep backstop's evictions are the cache's own
	// count (hotspot.Stats.Purged).
	CacheHitsLocal     uint64 `metric:"mspastry_dht_cache_hits_local" help:"Gets answered from this node's own hotspot cache."`
	CacheHitsRemote    uint64 `metric:"mspastry_dht_cache_hits_remote" help:"Gets answered by a caching hop short-circuiting the route."`
	CacheServes        uint64 `metric:"mspastry_dht_cache_serves" help:"Lookups this node answered from its cache for other nodes."`
	CacheDeposits      uint64 `metric:"mspastry_dht_cache_deposits" help:"Entries this node deposited on caching hops as a root."`
	CacheInvalidations uint64 `metric:"mspastry_dht_cache_invalidations" help:"Invalidations sent to caching hops after writes."`
	CacheStaleRejected uint64 `metric:"mspastry_dht_cache_stale_rejected" help:"Cached replies refused for violating the monotonic read floor."`
}

// Add accumulates o into c, field by field: how an experiment totals the
// counters of a cluster's stores.
func (c *Counters) Add(o Counters) {
	dst, src := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := range dst.NumField() {
		dst.Field(i).SetUint(dst.Field(i).Uint() + src.Field(i).Uint())
	}
}

// Counters returns a snapshot of the store's tallies.
func (s *Store) Counters() Counters { return s.counters }

// pendingOp is one client operation: in flight under reqID in
// Store.pending, or a Get the local cache answered, with its value, until
// localHit. kind is the request's wire kind (kindPut, kindGetVia,
// kindDelete).
type pendingOp struct {
	pastry.Alarm // the timeout, or the deferred local cache hit
	kind         byte
	// fresh forces a Get to bypass all caching (a cached reply violated
	// the monotonic read floor, or a test asked for it).
	fresh   bool
	retries uint8
	key     id.ID
	value   []byte
	reqID   uint64
	doneErr func(error)
	doneGet func([]byte, error)
}

// New attaches a store to node, registering it as the application layer,
// and starts the replication sweep.
func New(node *pastry.Node, env pastry.Env, cfg Config) *Store {
	backend := cfg.Backend
	if backend == nil {
		backend = store.NewMemory()
	}
	s := &Store{
		node:       node,
		env:        env,
		cfg:        cfg,
		backend:    backend,
		origin:     node.Ref().ID.Hi,
		pending:    make(map[uint64]*pendingOp),
		syncRounds: make(map[uint64]*syncRound),
		applied:    make(map[writeFrom]appliedWrite),
	}
	if cfg.CacheEntries > 0 {
		s.hot = newHotState(cfg)
		// Deposit records are per-peer state: the node's peer registry
		// broadcasts every final eviction, and dropping the evicted
		// peer's records there keeps the maps bounded under churn
		// without a prune pass of their own.
		node.Peers().OnEvict(func(x id.ID, _ string) { s.dropDepositTarget(x) })
	}
	node.SetApp(s)
	s.sweepAlarm.Bind(func() { s.fire(timerSweep, nil) })
	s.sweepAlarm.Arm(env, cfg.SweepInterval)
	return s
}

// Node returns the underlying overlay node.
func (s *Store) Node() *pastry.Node { return s.node }

// Backend exposes the object storage, for status reporting and for tests
// that need to diverge replica state directly. Callers must respect the
// store's execution context.
func (s *Store) Backend() store.Backend { return s.backend }

// StoreStats returns the backend's storage statistics.
func (s *Store) StoreStats() store.Stats { return s.backend.Stats() }

// Close releases the backend (flushing a disk-backed WAL). Call on process
// shutdown; the overlay node is stopped separately.
func (s *Store) Close() error { return s.backend.Close() }

// HasLocal reports whether the node holds a live replica of key.
func (s *Store) HasLocal(key id.ID) bool {
	o, ok := s.backend.Get(key)
	return ok && !o.Tombstone
}

// Put stores value under key with end-to-end acknowledgement; done is
// called exactly once.
func (s *Store) Put(key id.ID, value []byte, done func(error)) {
	s.counters.Puts++
	s.startOp(&pendingOp{kind: kindPut, key: key, value: value, doneErr: done})
}

// Get fetches the value under key with end-to-end acknowledgement; done is
// called exactly once. With hotspot caching enabled the read may be
// answered from this node's cache or a caching hop, bounded-stale by at
// most one sweep interval and never older than a version this node has
// already read.
func (s *Store) Get(key id.ID, done func([]byte, error)) {
	s.get(key, false, done)
}

// get is Get, or with fresh a read that bypasses all hotspot caches and is
// served by the key's root, as if caching were disabled.
func (s *Store) get(key id.ID, fresh bool, done func([]byte, error)) {
	s.counters.Gets++
	if !fresh && s.hot != nil {
		if e, ok := s.hot.cache.Get(key); ok {
			if s.env.Now()-e.StoredAt <= s.cfg.SweepInterval &&
				!s.hot.belowFloor(key, e.Version, e.Origin) {
				s.counters.CacheHitsLocal++
				s.counters.GetOK++
				s.hot.raiseFloor(key, e.Version, e.Origin)
				hit := &pendingOp{kind: kindGetVia, key: key, value: e.Value, doneGet: done}
				hit.Bind(func() { s.fire(timerLocalHit, hit) })
				hit.Arm(s.env, 0)
				return
			}
			s.hot.cache.Delete(key) // expired or below the read floor
		}
	}
	s.startOp(&pendingOp{kind: kindGetVia, key: key, fresh: fresh, doneGet: done})
}

// Delete removes key with end-to-end acknowledgement; done is called
// exactly once. The root writes a tombstone that replicates like any
// other write, so the deletion propagates instead of being resurrected by
// stale replicas.
func (s *Store) Delete(key id.ID, done func(error)) {
	s.counters.Deletes++
	s.startOp(&pendingOp{kind: kindDelete, key: key, doneErr: done})
}

// startOp gives op the next request id, binds its timeout and sends it.
func (s *Store) startOp(op *pendingOp) {
	s.nextReq++
	op.reqID = s.nextReq
	op.Bind(func() { s.fire(timerOp, op) })
	s.pending[op.reqID] = op
	s.sendOp(op)
}

// sendOp routes an operation to its key's root. A Get that bypasses
// caching (a fresh read, or a client without a cache) is neither served
// nor recorded by caching hops, and its root deposits nothing for it.
func (s *Store) sendOp(op *pendingOp) {
	var payload []byte
	if op.kind == kindGetVia {
		payload = encode(&getVia{reqID: op.reqID, bypass: s.hot == nil || op.fresh})
	} else {
		payload = encode(&request{kind: op.kind, reqID: op.reqID, value: op.value})
	}
	if _, ok := s.node.Lookup(op.key, payload); !ok {
		s.finish(op.reqID, nil, errors.New("dht: node is down"))
		return
	}
	op.Arm(s.env, requestTimeout)
}

// timerKind names the rule a timer of the store runs. A slot is bound to
// its kind once, and fire dispatches on it.
type timerKind uint8

const (
	timerSweep timerKind = iota
	timerOp
	timerLocalHit
)

// fire runs the rule of a timer of kind k that came due, on op for the
// operation kinds. Unlike the node's, its liveness guard is per rule:
// only the sweep stops on a crashed node. An operation's timeout runs on,
// so that its done is called once, with the node down.
func (s *Store) fire(k timerKind, op *pendingOp) {
	switch k {
	case timerSweep:
		s.sweepTick()
	case timerOp:
		s.opTimeout(op)
	case timerLocalHit:
		s.localHit(op)
	}
}

// opTimeout resends an operation no reply has completed, or fails it once
// its retries are spent.
func (s *Store) opTimeout(op *pendingOp) {
	if op.retries >= maxRetries {
		s.finish(op.reqID, nil, ErrTimeout)
		return
	}
	op.retries++
	s.counters.Retries++
	s.sendOp(op)
}

// localHit completes a Get answered from this node's cache, after the call
// returned, as every other completion is.
func (s *Store) localHit(op *pendingOp) { op.doneGet(op.value, nil) }

func (s *Store) finish(reqID uint64, value []byte, err error) {
	op, ok := s.pending[reqID]
	if !ok {
		return
	}
	delete(s.pending, reqID)
	op.Stop()
	if op.kind != kindGetVia && err == nil && s.hot != nil {
		// The client's own write supersedes whatever it had cached.
		s.hot.cache.Delete(op.key)
	}
	switch op.kind {
	case kindPut:
		if err != nil {
			s.counters.PutFail++
		} else {
			s.counters.PutOK++
		}
		op.doneErr(err)
	case kindDelete:
		if err != nil {
			s.counters.DeleteFail++
		} else {
			s.counters.DeleteOK++
		}
		op.doneErr(err)
	case kindGetVia:
		switch {
		case err == nil:
			s.counters.GetOK++
		case errors.Is(err, ErrNotFound):
			s.counters.GetNotFound++
		default:
			s.counters.GetFail++
		}
		op.doneGet(value, err)
	}
}

// Deliver implements pastry.App: the node is the root for the requested
// key and assigns versions.
func (s *Store) Deliver(lk *pastry.Lookup) {
	if len(lk.Payload) == 0 {
		return
	}
	switch lk.Payload[0] {
	case kindPut, kindDelete:
		s.deliverWrite(lk)
	case kindGetVia:
		s.deliverGetVia(lk)
	}
}

// writeFrom names the writes one origin sends to one key.
type writeFrom struct{ key, origin id.ID }

// appliedWrite is the newest write a root applied from one origin to one
// key: its request id and the root's clock when it was applied.
type appliedWrite struct {
	reqID uint64
	at    time.Duration
}

// lateWrite reports whether a write is no newer than the last one this
// root applied to the key from the same origin within writeHorizon: an
// end-to-end retry or a duplicated hop that arrived after a newer write.
// A late write is acknowledged and not applied, so the newer value stands.
// Request ids are per origin and increase with every operation.
func (s *Store) lateWrite(lk *pastry.Lookup, reqID uint64) bool {
	w, ok := s.applied[writeFrom{lk.Key, lk.Origin.ID}]
	return ok && reqID <= w.reqID && s.env.Now()-w.at < writeHorizon
}

// noteWrite records an applied write as the newest from its origin, and
// once per writeHorizon forgets the writes older than that: the memory
// holds at most two horizons' worth of writes.
func (s *Store) noteWrite(lk *pastry.Lookup, reqID uint64) {
	now := s.env.Now()
	if now >= s.forgetAt {
		for from, w := range s.applied {
			if now-w.at >= writeHorizon {
				delete(s.applied, from)
			}
		}
		s.forgetAt = now + writeHorizon
	}
	s.applied[writeFrom{lk.Key, lk.Origin.ID}] = appliedWrite{reqID, now}
}

// deliverWrite applies a put or a delete as the key's root and acks it.
// A delete writes a tombstone even for a key the root has never seen: a
// replica may still hold a value the root lost, and the tombstone stops
// anti-entropy from resurrecting it. A delete of a tombstone only acks.
func (s *Store) deliverWrite(lk *pastry.Lookup) {
	var req request
	if !decode(lk.Payload, &req) {
		return
	}
	done := ack{kindPutAck, req.reqID}
	if req.kind == kindDelete {
		done.kind = kindDeleteAck
	}
	if !s.lateWrite(lk, req.reqID) {
		cur, _ := s.backend.Get(lk.Key)
		if req.kind == kindPut || !cur.Tombstone {
			obj := store.Object{Key: lk.Key, Version: cur.Version + 1, Origin: s.origin,
				Tombstone: req.kind == kindDelete, Value: req.value}
			if _, err := s.backend.Apply(obj); err != nil {
				return // durable write failed: no ack, the client retries
			}
			s.replicate(obj)
			s.invalidateCached(obj)
		}
		s.noteWrite(lk, req.reqID)
	}
	s.reply(lk.Origin, encode(&done))
}

// reply sends a reply to an operation's origin, or dispatches it as
// received when the origin is this node.
func (s *Store) reply(to pastry.NodeRef, payload []byte) {
	if to.ID == s.node.Ref().ID {
		s.Direct(to, payload)
		return
	}
	s.node.SendDirect(to, payload)
}

// Forward implements pastry.App: cache-aware Gets may be served from
// this node's hotspot cache mid-route (consuming the lookup) or record
// this node as a caching hop; everything else routes untouched.
func (s *Store) Forward(lk *pastry.Lookup) bool {
	return s.hot == nil || len(lk.Payload) == 0 || lk.Payload[0] != kindGetVia || s.hotspotForward(lk)
}

// Direct implements pastry.App: end-to-end replies, replica pushes, cache
// deposits and invalidations, and the anti-entropy/handoff protocol.
func (s *Store) Direct(from pastry.NodeRef, payload []byte) {
	if len(payload) == 0 {
		return
	}
	switch payload[0] {
	case kindPutAck, kindDeleteAck:
		s.onAck(payload)
	case kindCachedReply:
		s.onCachedReply(payload)
	case kindReplicate:
		s.onReplicate(payload)
	case kindDeposit:
		s.onDeposit(payload)
	case kindInvalidate:
		s.onInvalidate(payload)
	case kindSyncRoot:
		s.onSyncRoot(from, payload)
	case kindSyncRootOK:
		s.onSyncRootOK(payload)
	case kindSyncBuckets:
		s.onSyncBuckets(payload)
	case kindSyncKeys:
		s.onSyncKeys(from, payload)
	case kindSyncPull:
		s.onSyncPull(from, payload)
	case kindHandoffOffer:
		s.onHandoffOffer(from, payload)
	case kindHandoffWant:
		s.onHandoffWant(from, payload)
	case kindHandoffHave:
		s.onHandoffHave(payload)
	}
}

// onAck completes a put or delete.
func (s *Store) onAck(payload []byte) {
	if done := (ack{kind: payload[0]}); decode(payload, &done) {
		s.finish(done.id, nil, nil)
	}
}

// onReplicate applies a replica push or repair. One that supersedes a
// cached read invalidates it (anti-entropy as invalidation backstop).
func (s *Store) onReplicate(payload []byte) {
	var o store.Object
	if !decode(payload, &o) {
		return
	}
	if applied, _ := s.backend.Apply(o); applied {
		s.counters.ReplicasApplied++
		if s.hot != nil {
			s.hot.cache.InvalidateUnder(o.Key, o.Version, o.Origin)
		}
	}
}

// replicate pushes an object to the k-1 leaf-set members closest to its
// key (write-time replication; not charged as maintenance traffic).
func (s *Store) replicate(o store.Object) {
	payload := encode(&o)
	for _, m := range s.replicaTargets(o.Key) {
		s.counters.ReplicasPushed++
		s.node.SendDirect(m, payload)
	}
}

// replicaTargets returns the k-1 leaf members closest to key.
func (s *Store) replicaTargets(key id.ID) []pastry.NodeRef {
	// Copy: Members() returns a shared snapshot and the selection sort
	// below reorders in place.
	members := append([]pastry.NodeRef(nil), s.node.Leaf().Members()...)
	// Selection sort of the k-1 closest; leaf sets are small.
	want := min(ReplicationFactor-1, len(members))
	for i := 0; i < want; i++ {
		best := i
		for j := i + 1; j < len(members); j++ {
			if id.CloserToKey(key, members[j].ID, members[best].ID) {
				best = j
			}
		}
		members[i], members[best] = members[best], members[i]
	}
	return members[:want]
}

// sweepTick runs the periodic sweep and re-arms it. A crashed node's
// sweep stops for good.
func (s *Store) sweepTick() {
	if !s.node.Alive() {
		return
	}
	s.purgeHotspot()
	s.sweep()
	s.sweepAlarm.Arm(s.env, s.cfg.SweepInterval)
}

// sweep re-establishes the replication invariant after churn. For every
// stored key the node ranks itself against its leaf set: within the
// replica set (rank < k) it reconciles with the other replicas by Merkle
// anti-entropy; far outside it (rank ≥ 2k, with hysteresis) it offers
// the object to the current root and drops its copy once answered. The
// sync rounds the previous sweep opened end here, answered or not.
func (s *Store) sweep() {
	clear(s.syncRounds)
	if !s.node.Active() {
		return
	}
	s.counters.Sweeps++
	members := s.node.Leaf().Members()
	k := ReplicationFactor

	// Collect first: handoffs mutate the backend, and Range must not
	// observe mutation.
	type ranked struct {
		obj  store.Object
		rank int
	}
	var local []ranked
	s.backend.Range(func(o store.Object) bool {
		local = append(local, ranked{o, s.rankForKey(o.Key, members)})
		return true
	})
	// Stable order keeps simulated runs reproducible for a given seed.
	sort.Slice(local, func(i, j int) bool { return local[i].obj.Key.Less(local[j].obj.Key) })

	groups := make(map[string][]id.ID) // replica addr → keys shared with it
	targets := make(map[string]pastry.NodeRef)
	for _, ro := range local {
		switch {
		case ro.rank >= 2*k:
			s.offerHandoff(ro.obj, members)
		case ro.rank < k:
			for _, m := range s.replicaTargets(ro.obj.Key) {
				groups[m.Addr] = append(groups[m.Addr], ro.obj.Key)
				targets[m.Addr] = m
			}
		}
	}
	addrs := make([]string, 0, len(groups))
	for addr := range groups {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		s.startSync(targets[addr], groups[addr])
	}
}

// rankForKey returns this node's rank (0 = closest) among itself and its
// leaf members for the key.
func (s *Store) rankForKey(key id.ID, members []pastry.NodeRef) int {
	rank := 0
	for _, m := range members {
		if id.CloserToKey(key, m.ID, s.node.Ref().ID) {
			rank++
		}
	}
	return rank
}

func (s *Store) closestMember(key id.ID, members []pastry.NodeRef) (pastry.NodeRef, bool) {
	if len(members) == 0 {
		return pastry.NodeRef{}, false
	}
	best := members[0]
	for _, m := range members[1:] {
		if id.CloserToKey(key, m.ID, best.ID) {
			best = m
		}
	}
	return best, true
}
