package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mspastry/internal/id"
)

func mustOpen(t *testing.T, dir string, opts DiskOptions) *Disk {
	t.Helper()
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiskRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, DiskOptions{})
	want := make(map[id.ID]string)
	for i := 0; i < 50; i++ {
		o := obj(uint64(i), uint64(i), 1, 3, fmt.Sprintf("value-%d", i))
		want[o.Key] = string(o.Value)
		if _, err := d.Apply(o); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite a few, tombstone one, drop one.
	d.Apply(obj(1, 1, 2, 3, "updated"))
	want[id.New(1, 1)] = "updated"
	d.Apply(Object{Key: id.New(2, 2), Version: 2, Origin: 3, Tombstone: true})
	delete(want, id.New(2, 2))
	d.Drop(id.New(3, 3))
	delete(want, id.New(3, 3))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, DiskOptions{})
	defer d2.Close()
	if d2.Len() != len(want) {
		t.Fatalf("reopened len = %d, want %d", d2.Len(), len(want))
	}
	for k, v := range want {
		got, ok := d2.Get(k)
		if !ok || string(got.Value) != v {
			t.Fatalf("key %s: got %q/%v, want %q", k, got.Value, ok, v)
		}
	}
	// The tombstone survived the restart and still blocks resurrection.
	if tomb, ok := d2.Get(id.New(2, 2)); !ok || !tomb.Tombstone {
		t.Fatal("tombstone lost across reopen")
	}
	// The dropped key is gone for good.
	if _, ok := d2.Get(id.New(3, 3)); ok {
		t.Fatal("dropped key resurrected by replay")
	}
	if d2.Stats().Replayed == 0 {
		t.Fatal("reopen replayed nothing")
	}
}

func TestDiskCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: compaction must trigger during the writes.
	d := mustOpen(t, dir, DiskOptions{compactBytes: 512})
	for i := 0; i < 40; i++ {
		if _, err := d.Apply(obj(7, uint64(i), 1, 1, "padding-padding-padding")); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction despite tiny threshold")
	}
	if st.WALBytes > 512+128 {
		t.Fatalf("wal not truncated: %d bytes", st.WALBytes)
	}
	if st.SnapshotBytes == 0 {
		t.Fatal("no snapshot written")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, DiskOptions{compactBytes: 512})
	defer d2.Close()
	if d2.Len() != 40 {
		t.Fatalf("post-compaction reopen len = %d, want 40", d2.Len())
	}
}

// TestDiskCrashRecovery kills a store mid-write: every fully-written
// record must survive, the torn tail must be discarded, and the reopened
// store must keep working.
func TestDiskCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, DiskOptions{})
	for i := 0; i < 10; i++ {
		d.Apply(obj(9, uint64(i), 1, 1, "durable"))
	}
	// Simulate the crash: abandon the handle without Close (no final
	// sync), then tear the last record by truncating mid-body.
	d.wal.Sync()
	walPath := filepath.Join(dir, walFile)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	d.wal.Close()

	d2 := mustOpen(t, dir, DiskOptions{})
	if d2.Len() != 9 {
		t.Fatalf("after torn tail: len = %d, want 9 (one torn record dropped)", d2.Len())
	}
	for i := 0; i < 9; i++ {
		if _, ok := d2.Get(id.New(9, uint64(i))); !ok {
			t.Fatalf("intact record %d lost", i)
		}
	}
	// The reopened store appends over the torn bytes and stays consistent.
	if _, err := d2.Apply(obj(9, 99, 1, 1, "post-crash")); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3 := mustOpen(t, dir, DiskOptions{})
	defer d3.Close()
	if d3.Len() != 10 {
		t.Fatalf("final reopen len = %d, want 10", d3.Len())
	}
	if _, ok := d3.Get(id.New(9, 99)); !ok {
		t.Fatal("post-crash write lost")
	}
}

// TestDiskCorruptMiddle flips a byte inside an early record: replay must
// stop at the damage (everything after is suspect) without crashing, and
// the next writes must land cleanly.
func TestDiskCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, DiskOptions{})
	for i := 0; i < 5; i++ {
		d.Apply(obj(4, uint64(i), 1, 1, "x"))
	}
	d.Close()
	walPath := filepath.Join(dir, walFile)
	buf, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(walPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, DiskOptions{})
	defer d2.Close()
	if d2.Len() >= 5 {
		t.Fatalf("corrupt record replayed: len = %d", d2.Len())
	}
	if _, err := d2.Apply(obj(4, 100, 1, 1, "after-corruption")); err != nil {
		t.Fatal(err)
	}
}
