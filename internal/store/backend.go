package store

import "mspastry/internal/id"

// Stats is a backend's state snapshot for telemetry and status surfaces.
// Each field's metric and help tags name and describe the gauge a live
// node exports it as (telemetry.Registry.SetGauges).
type Stats struct {
	// Objects counts live (non-tombstone) objects; Tombstones counts
	// retained deletion markers.
	Objects    int `metric:"mspastry_store_objects" help:"Live objects in the backend."`
	Tombstones int `metric:"mspastry_store_tombstones" help:"Tombstones retained for delete propagation."`
	// WALBytes and SnapshotBytes are the on-disk sizes (zero for the
	// memory backend).
	WALBytes      int64 `metric:"mspastry_store_wal_bytes" help:"Write-ahead log size on disk (0 for the memory backend)."`
	SnapshotBytes int64 `metric:"mspastry_store_snapshot_bytes" help:"Last snapshot size on disk."`
	// Compactions counts snapshot+truncate cycles; Replayed is how many
	// WAL records the last Open recovered.
	Compactions uint64 `metric:"mspastry_store_compactions" help:"Snapshot compactions performed."`
	Replayed    int    `metric:"mspastry_store_replayed_records" help:"Records replayed from disk at open."`
}

// Backend stores versioned objects for one DHT node. Implementations
// centralise the version rules: Apply merges under Object.Supersedes, so
// callers can feed writes, replica pushes and anti-entropy repairs
// through the same path in any order. All calls are serialised by the
// caller (the node's Env context; telemetry scrapes go through the same
// serialisation), so implementations need no locking of their own.
type Backend interface {
	// Get returns the current object under key (possibly a tombstone).
	Get(key id.ID) (Object, bool)
	// Apply merges o if it supersedes the current object (or the key is
	// absent) and reports whether state changed.
	Apply(o Object) (bool, error)
	// Drop removes the key locally without writing a tombstone. This is
	// the responsibility-handoff path: the object lives on elsewhere, it
	// just no longer belongs here.
	Drop(key id.ID) error
	// Range calls fn for every stored object (tombstones included) until
	// fn returns false. Mutating the backend during Range is undefined;
	// collect first, then write.
	Range(fn func(Object) bool)
	// Len counts live (non-tombstone) objects.
	Len() int
	// Stats snapshots the backend state.
	Stats() Stats
	// Close releases resources (flushes the WAL for the disk backend).
	Close() error
}

// Memory is the map-backed Backend used by simulations and tests.
type Memory struct {
	objects    map[id.ID]Object
	tombstones int
}

// NewMemory creates an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{objects: make(map[id.ID]Object)}
}

// Get implements Backend.
func (m *Memory) Get(key id.ID) (Object, bool) {
	o, ok := m.objects[key]
	return o, ok
}

// Apply implements Backend.
func (m *Memory) Apply(o Object) (bool, error) {
	if !m.admits(o) {
		return false, nil
	}
	m.set(o)
	return true, nil
}

// admits reports whether o supersedes the object under its key, or the
// key is absent: the one version rule both backends apply.
func (m *Memory) admits(o Object) bool {
	cur, ok := m.objects[o.Key]
	return !ok || o.Supersedes(cur)
}

// set installs a copy of o unconditionally, keeping the tombstone count.
func (m *Memory) set(o Object) {
	if cur, ok := m.objects[o.Key]; ok && cur.Tombstone {
		m.tombstones--
	}
	if o.Tombstone {
		m.tombstones++
	}
	o.Value = append([]byte(nil), o.Value...) // own the bytes
	m.objects[o.Key] = o
}

// Drop implements Backend.
func (m *Memory) Drop(key id.ID) error {
	if cur, ok := m.objects[key]; ok {
		if cur.Tombstone {
			m.tombstones--
		}
		delete(m.objects, key)
	}
	return nil
}

// Range implements Backend.
func (m *Memory) Range(fn func(Object) bool) {
	for _, o := range m.objects {
		if !fn(o) {
			return
		}
	}
}

// Len implements Backend.
func (m *Memory) Len() int { return len(m.objects) - m.tombstones }

// Stats implements Backend.
func (m *Memory) Stats() Stats {
	return Stats{Objects: m.Len(), Tombstones: m.tombstones}
}

// Close implements Backend.
func (m *Memory) Close() error { return nil }
