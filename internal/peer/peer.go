// Package peer is the per-peer state registry: one record per remote
// peer, holding the liveness timestamps every layer needs, the State
// nearly every peer has (self-tuning hint, probe-suppression memory, RTT
// estimator) inline, and typed component slots for subsystem state
// (which of those three components are set, overload protection, the
// reconnect graveyard), with an explicit lifecycle
//
//	observed -> admitted -> evicted
//
// driven by routing-state membership. A peer becomes *observed* the
// first time any message is exchanged with it, *admitted* once it
// enters routing state (leaf set, routing table, or an active probe),
// and *evicted* when it has left routing state, every prunable slot
// has drained, and its record has gone untouched for the class TTL —
// short for strangers that were never admitted (so senders that never
// make it into routing state cannot leak state), long for once-admitted
// peers (so reconnect and RTT memory survive transient membership
// gaps). Eviction is broadcast to subscribers (transports, the DHT) so
// no layer keeps private per-peer state beyond the record's life.
//
// Ordering guarantees: slot pruners run in registration order within a
// record; records are visited in map order during a sweep (pruning is
// pure state removal, so this order is unobservable); evicted records
// are broadcast in ascending identifier order so that any work a
// subscriber performs on eviction happens in a deterministic sequence,
// keeping seeded simulations replayable.
package peer

import (
	"slices"
	"time"

	"mspastry/internal/id"
)

// Config bounds record lifetimes.
type Config struct {
	// StrangerTTL is how long a never-admitted peer's record survives
	// past its last touch. Strangers hold at most probe-suppression
	// memory, so this only needs to cover the longest suppression
	// window that is read for non-members.
	StrangerTTL time.Duration
	// AdmittedTTL is how long a once-admitted peer's record survives
	// after it leaves routing state, preserving RTT estimates and
	// liveness history across transient membership gaps.
	AdmittedTTL time.Duration
}

// DefaultConfig returns the production lifetimes: strangers expire
// after a minute, once-admitted peers after ten.
func DefaultConfig() Config {
	return Config{
		StrangerTTL: time.Minute,
		AdmittedTTL: 10 * time.Minute,
	}
}

// PruneFunc is a slot's pruning rule, applied to every non-nil slot
// value during a sweep. It returns the replacement value; returning nil
// clears the slot. member reports whether the peer is currently in
// routing state.
type PruneFunc func(x id.ID, v any, now time.Duration, member bool) any

// Slot is a handle to one registered component's per-record state.
type Slot struct{ idx int }

// maxSlots is how many slots a registry can register: a record holds its
// slot table inline, so the table's size is fixed. A node registers five.
const maxSlots = 5

type slotDef struct {
	name  string
	prune PruneFunc // nil for retained slots
}

// Record is one peer's state. The exported timestamp fields are the
// liveness bookkeeping every layer shares; component state hangs off
// the registered slots, whose table the record holds inline, and State
// is the common components' storage, which a slot points into. A record
// is one object, whatever its slots hold.
type Record struct {
	ID   id.ID
	Addr string

	// LastRecv/LastSent are when a message was last received from /
	// sent to the peer; LastLiveness is the last probe activity;
	// LastHeartbeat is the last heartbeat sent to it.
	LastRecv      time.Duration
	LastSent      time.Duration
	LastLiveness  time.Duration
	LastHeartbeat time.Duration

	// State is read only through the slot that marks its component set.
	State State

	touch    time.Duration
	admitted bool
	doomed   bool
	slots    [maxSlots]any
}

// Admitted reports whether the peer ever entered routing state.
func (rec *Record) Admitted() bool { return rec.admitted }

// Doomed reports whether the record awaits final deletion after an
// Expel: its eviction has already been broadcast, and the next sweep
// where its prunable slots have drained removes it without a TTL wait.
func (rec *Record) Doomed() bool { return rec.doomed }

// Admit marks the peer as having entered routing state (and lifts any
// pending expulsion: the peer came back).
func (rec *Record) Admit() {
	rec.admitted = true
	rec.doomed = false
}

// Touch refreshes the record's idle clock.
func (rec *Record) Touch(now time.Duration) {
	if now > rec.touch {
		rec.touch = now
	}
}

// Touched returns when the record's idle clock was last refreshed; TTL
// expiry measures from here.
func (rec *Record) Touched() time.Duration { return rec.touch }

// Registry holds every known peer's record.
type Registry struct {
	cfg   Config
	recs  map[id.ID]*Record
	slots []slotDef
	subs  []func(x id.ID, addr string)

	// live[i] counts records whose slot i is non-nil; drops[i] counts
	// cumulative slot values cleared by pruning.
	live  []int
	drops []uint64

	// evict is the sweep's eviction list, kept between sweeps and cleared
	// after each so that it holds no record.
	evict []*Record

	sweeps           uint64
	evictedStrangers uint64
	evictedAdmitted  uint64
	expelled         uint64
}

// New creates an empty registry; zero Config fields take defaults.
func New(cfg Config) *Registry {
	def := DefaultConfig()
	if cfg.StrangerTTL <= 0 {
		cfg.StrangerTTL = def.StrangerTTL
	}
	if cfg.AdmittedTTL <= 0 {
		cfg.AdmittedTTL = def.AdmittedTTL
	}
	return &Registry{cfg: cfg, recs: make(map[id.ID]*Record)}
}

// NewSlot registers a prunable component slot. A record cannot be
// evicted while a prunable slot still holds a value: the pruner is the
// component's statement of how long its state stays meaningful.
func (r *Registry) NewSlot(name string, prune PruneFunc) Slot {
	if prune == nil {
		panic("peer: NewSlot requires a prune func (use NewRetainedSlot)")
	}
	return r.addSlot(name, prune)
}

// NewRetainedSlot registers a slot with no pruning rule: its value
// lives exactly as long as the record and never delays eviction. Used
// for state that is only read while the peer is a member (for example
// RTT estimators).
func (r *Registry) NewRetainedSlot(name string) Slot {
	return r.addSlot(name, nil)
}

func (r *Registry) addSlot(name string, prune PruneFunc) Slot {
	if len(r.slots) == maxSlots {
		panic("peer: slot " + name + " is past the record's inline slot table (maxSlots)")
	}
	r.slots = append(r.slots, slotDef{name: name, prune: prune})
	r.live = append(r.live, 0)
	r.drops = append(r.drops, 0)
	return Slot{idx: len(r.slots) - 1}
}

// OnEvict subscribes to eviction broadcasts. Subscribers are invoked in
// subscription order, once per evicted peer, after the record is gone.
func (r *Registry) OnEvict(fn func(x id.ID, addr string)) {
	r.subs = append(r.subs, fn)
}

// Lookup returns the peer's record, or nil if none exists.
func (r *Registry) Lookup(x id.ID) *Record { return r.recs[x] }

// Obtain returns the peer's record, creating it (observed, not yet
// admitted) on first contact, refreshing its address and idle clock.
func (r *Registry) Obtain(x id.ID, addr string, now time.Duration) *Record {
	rec := r.recs[x]
	if rec == nil {
		rec = &Record{ID: x, Addr: addr, touch: now}
		r.recs[x] = rec
		return rec
	}
	if addr != "" {
		rec.Addr = addr
	}
	rec.Touch(now)
	return rec
}

// Get returns the record's value for the slot (nil when unset).
func (rec *Record) Get(s Slot) any { return rec.slots[s.idx] }

// Put stores the record's value for the slot (nil clears it) and keeps
// the registry's live-slot accounting.
func (r *Registry) Put(rec *Record, s Slot, v any) {
	old := rec.slots[s.idx]
	rec.slots[s.idx] = v
	if old == nil && v != nil {
		r.live[s.idx]++
	} else if old != nil && v == nil {
		r.live[s.idx]--
	}
}

// SlotCount returns how many records currently hold a value in the slot.
func (r *Registry) SlotCount(s Slot) int { return r.live[s.idx] }

// Len returns the number of live records.
func (r *Registry) Len() int { return len(r.recs) }

// Each visits every record in map order. Pure reads and in-place value
// mutation are safe; callers deriving behaviour from the visit order
// must impose their own deterministic ordering.
func (r *Registry) Each(fn func(*Record)) {
	for _, rec := range r.recs {
		fn(rec)
	}
}

// Busy reports whether any prunable slot still holds a value for rec.
// Busy records veto TTL eviction until their slots drain; the leak
// detector uses this to tell vetoed records from genuinely leaked ones.
func (r *Registry) Busy(rec *Record) bool {
	for i, sd := range r.slots {
		if rec.slots[i] != nil && sd.prune != nil {
			return true
		}
	}
	return false
}

// Expel broadcasts the peer's eviction immediately — its external
// per-peer state (transport addresses, deposit records) is released now —
// and dooms the record: it is deleted at the first sweep where every
// prunable slot has drained, without waiting for the idle TTL. Used when a layer knows the peer is gone for good
// (reconnect cache expiry). Safe to call for peers with no record.
func (r *Registry) Expel(x id.ID, addr string) {
	if rec := r.recs[x]; rec != nil {
		rec.doomed = true
		if addr == "" {
			addr = rec.Addr
		}
	}
	r.expelled++
	for _, fn := range r.subs {
		fn(x, addr)
	}
}

// Sweep runs one prune pass: every record's prunable slots are pruned,
// members are marked admitted, and non-member records that have fully
// drained and idled past their class TTL (or were expelled) are evicted
// with a broadcast, in ascending identifier order. member reports
// routing-state membership (leaf set, routing table, or active probe).
// Returns the number of records evicted.
func (r *Registry) Sweep(now time.Duration, member func(x id.ID) bool) int {
	r.sweeps++
	evict := r.evict[:0]
	for x, rec := range r.recs {
		m := member(x)
		if m {
			rec.Admit()
			// Membership is evidence of relevance: refresh the idle
			// clock so the class TTL measures from when the peer *left*
			// routing state (or its last contact, whichever is later),
			// not from its last message while still a member.
			rec.Touch(now)
		}
		busy := false
		for i, sd := range r.slots {
			v := rec.slots[i]
			if v == nil {
				continue
			}
			if sd.prune == nil {
				continue // retained: lives with the record
			}
			if v = sd.prune(x, v, now, m); v == nil {
				rec.slots[i] = nil
				r.live[i]--
				r.drops[i]++
				continue
			}
			rec.slots[i] = v
			busy = true
		}
		if m || busy {
			continue
		}
		ttl := r.cfg.StrangerTTL
		if rec.admitted {
			ttl = r.cfg.AdmittedTTL
		}
		if rec.doomed || now-rec.touch >= ttl {
			evict = append(evict, rec)
		}
	}
	slices.SortFunc(evict, func(a, b *Record) int { return a.ID.Cmp(b.ID) })
	for _, rec := range evict {
		delete(r.recs, rec.ID)
		for i := range r.slots {
			if rec.slots[i] != nil {
				r.live[i]--
			}
		}
		if rec.admitted {
			r.evictedAdmitted++
		} else {
			r.evictedStrangers++
		}
		if rec.doomed {
			continue // external state was already released by Expel
		}
		for _, fn := range r.subs {
			fn(rec.ID, rec.Addr)
		}
	}
	clear(evict)
	r.evict = evict[:0]
	return len(evict)
}

// SlotStat is one component slot's cardinality and prune economics.
type SlotStat struct {
	Name string
	// Live is how many records currently hold state in this slot.
	Live int
	// Dropped is the cumulative number of slot values cleared by
	// pruning (not counting whole-record evictions).
	Dropped uint64
}

// Stats is a registry snapshot for telemetry. Each numeric field's metric
// and help tags name and describe the gauge a live node exports it as
// (telemetry.Registry.SetGauges).
type Stats struct {
	// Live is the total record count; Admitted of those ever entered
	// routing state; Strangers never did; Doomed await final deletion
	// after an Expel.
	Live      int `metric:"mspastry_peers_live" help:"Per-peer state records currently held."`
	Admitted  int `metric:"mspastry_peers_admitted" help:"Peer records that have entered routing state at least once."`
	Strangers int `metric:"mspastry_peers_strangers" help:"Peer records never admitted to routing state (short TTL)."`
	Doomed    int `metric:"mspastry_peers_doomed" help:"Expelled peer records awaiting final deletion."`
	// Sweeps counts prune passes; EvictedStrangers/EvictedAdmitted
	// count records evicted by class; Expelled counts immediate
	// eviction broadcasts.
	Sweeps           uint64 `metric:"mspastry_peers_sweeps_total" help:"Registry prune passes run."`
	EvictedStrangers uint64 `metric:"mspastry_peers_evicted_strangers_total" help:"Never-admitted peer records evicted by TTL."`
	EvictedAdmitted  uint64 `metric:"mspastry_peers_evicted_admitted_total" help:"Once-admitted peer records evicted by TTL."`
	Expelled         uint64 `metric:"mspastry_peers_expelled_total" help:"Immediate eviction broadcasts (reconnect expiry, overflow)."`
	// Slots is the per-component breakdown, in registration order,
	// exported as the slot-labelled gauges mspastry_peers_slot_live and
	// mspastry_peers_slot_dropped_total.
	Slots []SlotStat
}

// Stats returns a snapshot of the registry's cardinality and prune
// economics.
func (r *Registry) Stats() Stats {
	s := Stats{
		Live:             len(r.recs),
		Sweeps:           r.sweeps,
		EvictedStrangers: r.evictedStrangers,
		EvictedAdmitted:  r.evictedAdmitted,
		Expelled:         r.expelled,
	}
	for _, rec := range r.recs {
		if rec.admitted {
			s.Admitted++
		} else {
			s.Strangers++
		}
		if rec.doomed {
			s.Doomed++
		}
	}
	s.Slots = make([]SlotStat, len(r.slots))
	for i, sd := range r.slots {
		s.Slots[i] = SlotStat{Name: sd.name, Live: r.live[i], Dropped: r.drops[i]}
	}
	return s
}
