package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mspastry/internal/codec/codectest"
	"mspastry/internal/id"
)

func reencodeObject(b []byte) ([]byte, bool) {
	o, ok := DecodeObject(b)
	return EncodeObject(nil, o), ok
}

// TestRecordedFrames pins EncodeObject, which is both the WAL record body
// and the dht's replication payload, to frames recorded from the
// hand-written codec this package used to have.
func TestRecordedFrames(t *testing.T) {
	for name, o := range map[string]Object{
		"object":           obj(1, 2, 300, 1<<40, "hello"),
		"object-empty":     obj(0, 0, 3, 0, ""),
		"object-tombstone": {Key: id.New(9, 9), Version: 5, Origin: 42, Tombstone: true},
		"object-extremes":  obj(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), "x"),
	} {
		frame := codectest.WantFrame(t, name, EncodeObject(nil, o))
		got, ok := DecodeObject(frame)
		if !ok || got.Key != o.Key || got.Version != o.Version || got.Origin != o.Origin ||
			got.Tombstone != o.Tombstone || !bytes.Equal(got.Value, o.Value) {
			t.Errorf("%s: recorded frame decodes to %+v (ok=%v), want %+v", name, got, ok, o)
		}
	}
}

// FuzzDecodeObject asserts the object codec never panics and that every
// accepted input survives a round trip.
func FuzzDecodeObject(f *testing.F) {
	f.Add(EncodeObject(nil, obj(1, 2, 3, 4, "seed")))
	f.Add(EncodeObject(nil, Object{Key: id.New(5, 6), Version: 1, Tombstone: true}))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if o, ok := DecodeObject(data); ok && o.Version == 0 {
			t.Fatal("decoder accepted reserved version 0")
		}
		codectest.RoundTrip(t, data, reencodeObject)
	})
}

// FuzzWALOpen feeds arbitrary bytes to the WAL replayer: Open must never
// panic, must terminate, and the recovered store must accept new writes.
func FuzzWALOpen(f *testing.F) {
	valid := func() []byte {
		dir := f.TempDir()
		d, err := Open(dir, DiskOptions{})
		if err != nil {
			f.Fatal(err)
		}
		d.Apply(obj(1, 1, 1, 1, "seed"))
		d.Apply(Object{Key: id.New(2, 2), Version: 1, Tombstone: true})
		d.Drop(id.New(1, 1))
		d.Close()
		buf, err := os.ReadFile(filepath.Join(dir, walFile))
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(dir, DiskOptions{})
		if err != nil {
			t.Fatalf("Open on arbitrary WAL errored: %v", err)
		}
		if _, err := d.Apply(obj(9, 9, 1, 1, "post-recovery")); err != nil {
			t.Fatalf("recovered store rejected a write: %v", err)
		}
		if _, ok := d.Get(id.New(9, 9)); !ok {
			t.Fatal("recovered store lost a fresh write")
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		// The recovered-and-extended log must reopen cleanly.
		d2, err := Open(dir, DiskOptions{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if _, ok := d2.Get(id.New(9, 9)); !ok {
			t.Fatal("write lost across reopen")
		}
		d2.Close()
	})
}
