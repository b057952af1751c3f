package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"mspastry/internal/id"
)

// Disk is the durable Backend: a Memory plus its log. The full object set
// lives in that Memory (the DHT working set is bounded by the node's
// replica responsibility), every mutation is appended to a CRC-framed
// write-ahead log before it is applied there, and when the log outgrows
// DiskOptions.compactBytes the state is snapshotted and the log
// truncated. Open replays snapshot + log, discarding a torn tail, so a
// crash at any byte boundary recovers every fully-written record.
//
// Directory layout:
//
//	<dir>/snapshot.dat  last compaction's full state (record stream)
//	<dir>/wal.log       mutations since that snapshot (record stream)
//
// Record framing (both files):
//
//	length u32 BE | crc32(body) u32 BE | body = kind(1) | payload
//
// kind recPut carries EncodeObject; kind recDrop carries the bare 16-byte
// key (a local responsibility handoff, not a tombstone).
type Disk struct {
	dir  string
	opts DiskOptions
	mem  *Memory

	wal      *os.File
	walBytes int64

	snapshotBytes int64
	compactions   uint64
	replayed      int
	appends       int
}

// DiskOptions tunes the durable backend.
type DiskOptions struct {
	// compactBytes triggers snapshot + WAL truncation when the log
	// exceeds it: 1 MiB, unless this package's tests shrink it.
	compactBytes int64
	// SyncEvery fsyncs the WAL after every N appends; 0 syncs only at
	// snapshot and Close, trading a crash window for throughput (the DHT
	// re-replicates lost tails via anti-entropy anyway).
	SyncEvery int
}

const (
	snapshotFile = "snapshot.dat"
	walFile      = "wal.log"

	recPut  = 1
	recDrop = 2

	recHeader = 8
	// maxRecord bounds one record so a corrupt length prefix cannot force
	// a huge allocation during replay.
	maxRecord = 64 << 20
)

// Open loads (or creates) a durable store in dir.
func Open(dir string, opts DiskOptions) (*Disk, error) {
	if opts.compactBytes <= 0 {
		opts.compactBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{dir: dir, opts: opts, mem: NewMemory()}

	// Snapshot first, then the log on top: the log always post-dates the
	// snapshot it accompanies.
	snapN, err := d.replayFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(filepath.Join(dir, snapshotFile)); err == nil {
		d.snapshotBytes = fi.Size()
	}
	walN, err := d.replayFile(filepath.Join(dir, walFile))
	if err != nil {
		return nil, err
	}
	d.replayed = snapN + walN

	wal, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Append after the last intact record: a torn tail found during
	// replay is overwritten, not preserved.
	if _, err := wal.Seek(d.walBytes, io.SeekStart); err != nil {
		wal.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := wal.Truncate(d.walBytes); err != nil {
		wal.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	d.wal = wal
	// A log that grew past the threshold while we were down compacts
	// immediately, so restart loops cannot grow it without bound.
	if d.walBytes > d.opts.compactBytes {
		if err := d.compact(); err != nil {
			wal.Close()
			return nil, err
		}
	}
	return d, nil
}

// replayFile applies every intact record in path and returns how many it
// read. Missing files are fine (fresh store). For the WAL it also leaves
// d.walBytes at the offset of the first damaged byte.
func (d *Disk) replayFile(path string) (int, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	isWAL := filepath.Base(path) == walFile
	n := 0
	off := int64(0)
	for {
		body, next, ok := nextRecord(buf, off)
		if !ok {
			break // torn or corrupt tail: keep what we have
		}
		if !d.applyRecord(body) {
			break // undecodable body: treat like a torn tail
		}
		off = next
		n++
	}
	if isWAL {
		d.walBytes = off
	}
	return n, nil
}

// nextRecord frames one record out of buf at off. It returns the body
// and the offset just past the record, or ok=false when the remaining
// bytes do not form an intact record.
func nextRecord(buf []byte, off int64) (body []byte, next int64, ok bool) {
	rest := buf[off:]
	if len(rest) < recHeader {
		return nil, 0, false
	}
	length := binary.BigEndian.Uint32(rest[0:4])
	if length == 0 || length > maxRecord || int64(length) > int64(len(rest)-recHeader) {
		return nil, 0, false
	}
	sum := binary.BigEndian.Uint32(rest[4:8])
	body = rest[recHeader : recHeader+int(length)]
	if crc32.ChecksumIEEE(body) != sum {
		return nil, 0, false
	}
	return body, off + recHeader + int64(length), true
}

// applyRecord replays one record body into the memory, unconditionally:
// replay order is authoritative, and Apply checked the version before
// logging.
func (d *Disk) applyRecord(body []byte) bool {
	if len(body) < 1 {
		return false
	}
	switch body[0] {
	case recPut:
		o, ok := DecodeObject(body[1:])
		if !ok {
			return false
		}
		d.mem.set(o) // copies the value out of the transient buf
		return true
	case recDrop:
		if len(body) != 17 {
			return false
		}
		d.mem.Drop(id.FromBytes(body[1:17]))
		return true
	default:
		return false
	}
}

// append frames and writes one record to the WAL. The caller updates the
// memory and then calls maybeCompact — in that order, so a
// threshold-triggered snapshot always includes the record it is about to
// truncate away.
func (d *Disk) append(body []byte) error {
	var hdr [recHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	if _, err := d.wal.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	if _, err := d.wal.Write(body); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	d.walBytes += recHeader + int64(len(body))
	d.appends++
	if d.opts.SyncEvery > 0 && d.appends%d.opts.SyncEvery == 0 {
		if err := d.wal.Sync(); err != nil {
			return fmt.Errorf("store: wal sync: %w", err)
		}
	}
	return nil
}

// maybeCompact compacts when the WAL has outgrown its threshold.
func (d *Disk) maybeCompact() error {
	if d.walBytes > d.opts.compactBytes {
		return d.compact()
	}
	return nil
}

// compact writes the full state to a fresh snapshot (atomic rename) and
// truncates the WAL, which it fsyncs first so the snapshot can never be
// older than a log it replaces.
func (d *Disk) compact() error {
	tmp := filepath.Join(d.dir, snapshotFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	var size int64
	var hdr [recHeader]byte
	body := make([]byte, 0, 4096)
	for _, o := range d.mem.objects {
		body = append(body[:0], recPut)
		body = EncodeObject(body, o)
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(body)))
		binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
		if _, err := f.Write(hdr[:]); err == nil {
			_, err = f.Write(body)
		}
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("store: compact: %w", err)
		}
		size += recHeader + int64(len(body))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, snapshotFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := d.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if _, err := d.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	d.walBytes = 0
	d.snapshotBytes = size
	d.compactions++
	return nil
}

// Get implements Backend.
func (d *Disk) Get(key id.ID) (Object, bool) { return d.mem.Get(key) }

// Apply implements Backend: WAL first, then memory.
func (d *Disk) Apply(o Object) (bool, error) {
	if !d.mem.admits(o) {
		return false, nil
	}
	body := make([]byte, 0, 40+len(o.Value))
	body = append(body, recPut)
	body = EncodeObject(body, o)
	if err := d.append(body); err != nil {
		return false, err
	}
	d.mem.set(o)
	return true, d.maybeCompact()
}

// Drop implements Backend.
func (d *Disk) Drop(key id.ID) error {
	if _, ok := d.mem.Get(key); !ok {
		return nil
	}
	body := make([]byte, 0, 17)
	body = append(body, recDrop)
	body = append(body, key.Bytes()...)
	if err := d.append(body); err != nil {
		return err
	}
	d.mem.Drop(key)
	return d.maybeCompact()
}

// Range implements Backend.
func (d *Disk) Range(fn func(Object) bool) { d.mem.Range(fn) }

// Len implements Backend.
func (d *Disk) Len() int { return d.mem.Len() }

// Stats implements Backend: the memory's counts plus the log's.
func (d *Disk) Stats() Stats {
	st := d.mem.Stats()
	st.WALBytes = d.walBytes
	st.SnapshotBytes = d.snapshotBytes
	st.Compactions = d.compactions
	st.Replayed = d.replayed
	return st
}

// Close flushes and closes the WAL.
func (d *Disk) Close() error {
	if d.wal == nil {
		return nil
	}
	err := d.wal.Sync()
	if cerr := d.wal.Close(); err == nil {
		err = cerr
	}
	d.wal = nil
	return err
}
