package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder started; parent is the index of the span that caused
// this one (-1 for none) and op identifies the request it belongs to (0
// when the boundary cannot tell). The struct holds no pointers, so the
// millions of spans a simulated run records cost the collector nothing.
type span struct {
	start, end int64
	parent     int32
	op         uint32
	name       uint8
}

// spanRec keeps every span of a traced run in memory; dump writes them out
// when the run ends. The live workloads record from many goroutines and
// set locked; the simulator is single-threaded and skips the mutex.
type spanRec struct {
	mu     sync.Mutex
	locked bool
	t0     time.Time
	names  []string
	spans  []span
	// skip is the number of leading spans that belong to set-up; totals
	// and dump leave them out.
	skip int
}

// newSpanRec makes a recorder with room for capacity spans. The room is
// touched up front: growing the slice mid-run maps and faults in fresh
// memory, a stall of up to hundreds of milliseconds that would be charged
// to whichever span happened to be open.
//
// The room is mapped outside the Go heap. On the heap, a hundred megabytes
// of live spans would double the collector's pacing target and the traced
// process would collect a tenth as often as the one it is compared with.
func newSpanRec(locked bool, capacity int, names ...string) *spanRec {
	room, err := syscall.Mmap(-1, 0, capacity*int(unsafe.Sizeof(span{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("bench: mapping room for %d spans: %v", capacity, err))
	}
	spans := unsafe.Slice((*span)(unsafe.Pointer(&room[0])), capacity)
	for i := range spans {
		spans[i].parent = -1
	}
	return &spanRec{locked: locked, t0: time.Now(), names: names, spans: spans[:0]}
}

func (r *spanRec) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its index.
func (r *spanRec) begin(name uint8, parent int32, op uint32) int32 {
	if r.locked {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.spans = append(r.spans, span{parent: parent, op: op, name: name})
	i := len(r.spans) - 1
	r.spans[i].start = r.now()
	return int32(i)
}

// end closes the span opened as idx.
func (r *spanRec) end(idx int32) {
	t := r.now()
	if r.locked {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.spans[idx].end = t
}

// add records a span whose interval the caller measured itself.
func (r *spanRec) add(name uint8, parent int32, op uint32, start, end int64) {
	if r.locked {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.spans = append(r.spans, span{start: start, end: end, parent: parent, op: op, name: name})
}

// mark declares everything recorded so far set-up: tracing proper starts
// with the timed work.
func (r *spanRec) mark() {
	if r.locked {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.skip = len(r.spans)
}

// kept returns the spans after the mark, re-based so that parent indices
// point into the returned slice (a parent from before the mark reads as
// none).
func (r *spanRec) kept() []span {
	out := append([]span(nil), r.spans[r.skip:]...)
	for i := range out {
		if out[i].parent -= int32(r.skip); out[i].parent < 0 {
			out[i].parent = -1
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children may overlap one another (concurrent
// handlers of one request) and may stick out of the parent (a reply
// handled after the client gave up), so the covered part is the union of
// the children's intervals clipped to the parent's.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	var kids []int32 // spans that have a parent, grouped by parent, by start within a group
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent >= 0 {
			kids = append(kids, int32(i))
		}
	}
	sort.Slice(kids, func(a, b int) bool {
		x, y := spans[kids[a]], spans[kids[b]]
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		return x.start < y.start
	})
	for i := 0; i < len(kids); {
		p := spans[kids[i]].parent
		reach := spans[p].start
		for ; i < len(kids) && spans[kids[i]].parent == p; i++ {
			lo, hi := spans[kids[i]].start, spans[kids[i]].end
			if lo < reach {
				lo = reach
			}
			if hi > spans[p].end {
				hi = spans[p].end
			}
			if hi > lo {
				self[p] -= hi - lo
				reach = hi
			}
		}
	}
	return self
}

// spanTotals sums self time, inclusive time and count per span name.
type spanTotals struct {
	self, incl, count []int64 // indexed by name
}

func sumSpans(spans []span, names int) spanTotals {
	t := spanTotals{
		self:  make([]int64, names),
		incl:  make([]int64, names),
		count: make([]int64, names),
	}
	self := selfTimes(spans)
	for i, s := range spans {
		t.self[s.name] += self[i]
		t.incl[s.name] += s.end - s.start
		t.count[s.name]++
	}
	return t
}

// maxDumpedSpans caps the span file: a simulated run records a few million
// spans, and the first few hundred thousand already show every boundary.
// The per-name totals in the file always cover all of them.
const maxDumpedSpans = 200000

// dump writes spans and their totals to bench/out/trace-<workload>.json
// (the directory is resolved against the working directory, which run.sh
// sets to bench/). Each span is [name index, start ns, end ns, parent, op].
func (r *spanRec) dump(workload string, spans []span, tot spanTotals) (string, error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	path := filepath.Join("out", "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"total_spans\":%d,\"truncated\":%t,\n\"names\":[",
		workload, len(spans), len(spans) > maxDumpedSpans)
	for i, n := range r.names {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\n\"totals\":{")
	for i, n := range r.names {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q:{\"count\":%d,\"self_ns\":%d,\"inclusive_ns\":%d}", n, tot.count[i], tot.self[i], tot.incl[i])
	}
	w.WriteString("},\n\"spans\":[\n")
	for i, s := range spans {
		if i == maxDumpedSpans {
			break
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d]", s.name, s.start, s.end, s.parent, s.op)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
