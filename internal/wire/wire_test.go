package wire

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/pastry"
)

func ref(n uint64) pastry.NodeRef {
	return pastry.NodeRef{ID: id.New(n, n), Addr: "node-1:4000"}
}

func hb(n uint64) pastry.Message {
	return &pastry.Heartbeat{From: ref(n), TrtHint: 30 * time.Second}
}

// testClock drives a coalescer without real time: After captures pending
// timers with their due times and fire advances the clock through them in
// due order (timer callbacks only act once the queue deadline arrives).
type testClock struct {
	now    time.Duration
	timers []testTimer
}

type testTimer struct {
	at time.Duration
	fn func()
}

func (c *testClock) Now() time.Duration { return c.now }

func (c *testClock) After(d time.Duration, fn func()) {
	c.timers = append(c.timers, testTimer{at: c.now + d, fn: fn})
}

func (c *testClock) fire() {
	for len(c.timers) > 0 {
		idx := 0
		for i, tm := range c.timers {
			if tm.at < c.timers[idx].at {
				idx = i
			}
		}
		tm := c.timers[idx]
		c.timers = append(c.timers[:idx], c.timers[idx+1:]...)
		if tm.at > c.now {
			c.now = tm.at
		}
		tm.fn()
	}
}

func newTestCoalescer(window time.Duration, maxPacket, maxSingle int) (*Coalescer, *testClock, *[]Flush) {
	clk := &testClock{}
	flushes := new([]Flush)
	co := NewCoalescer(Config{
		Window:    window,
		MaxPacket: maxPacket,
		MaxSingle: maxSingle,
		Now:       clk.Now,
		After:     clk.After,
		Emit: func(f Flush) {
			*flushes = append(*flushes, keep(f))
		},
	})
	return co, clk, flushes
}

// keep copies what a Flush only lends for the duration of Emit: the
// pooled frame and the queue's message slice.
func keep(f Flush) Flush {
	f.Frame = bytes.Clone(f.Frame)
	f.Msgs = slices.Clone(f.Msgs)
	return f
}

func TestSingleRoundTrip(t *testing.T) {
	m := hb(7)
	frame := EncodeSingle(m)
	if len(frame) != SingleSize(len(pastry.AppendMessage(nil, m))) {
		t.Fatalf("frame is %d bytes, want SingleSize", len(frame))
	}
	msgs, sizes, bad, err := DecodeAll(frame)
	if err != nil || bad != 0 || len(msgs) != 1 {
		t.Fatalf("DecodeAll: %d msgs, bad=%d, err=%v", len(msgs), bad, err)
	}
	got, ok := msgs[0].(*pastry.Heartbeat)
	if !ok || got.From != ref(7) || got.TrtHint != 30*time.Second {
		t.Fatalf("decoded %#v", msgs[0])
	}
	if SingleSize(sizes[0]) != len(frame) {
		t.Fatalf("size %d does not account for frame of %d bytes", sizes[0], len(frame))
	}
}

func TestBatchRoundTrip(t *testing.T) {
	co, clk, flushes := newTestCoalescer(time.Millisecond, 0, 0)
	var single int
	for i := uint64(1); i <= 3; i++ {
		n, err := co.Send("peer", ref(9), hb(i))
		if err != nil {
			t.Fatal(err)
		}
		single += SingleSize(n)
	}
	if len(*flushes) != 0 || co.Pending("peer") != 3 {
		t.Fatalf("flushed early: %d flushes, %d pending", len(*flushes), co.Pending("peer"))
	}
	clk.now = time.Millisecond
	clk.fire()
	if len(*flushes) != 1 {
		t.Fatalf("%d flushes after window", len(*flushes))
	}
	f := (*flushes)[0]
	if f.To != ref(9) || len(f.Msgs) != 3 || f.SingleBytes != single || f.Held != time.Millisecond {
		t.Fatalf("flush %+v (want 3 msgs, single=%d, held=1ms)", f, single)
	}
	if len(f.Frame) >= f.SingleBytes {
		t.Fatalf("batch of %d bytes saves nothing over %d single bytes", len(f.Frame), f.SingleBytes)
	}
	msgs, _, bad, err := DecodeAll(f.Frame)
	if err != nil || bad != 0 || len(msgs) != 3 {
		t.Fatalf("DecodeAll: %d msgs, bad=%d, err=%v", len(msgs), bad, err)
	}
	for i, m := range msgs {
		if m.(*pastry.Heartbeat).From != ref(uint64(i+1)) {
			t.Fatalf("message %d out of order: %#v", i, m)
		}
	}
}

// A batch that lands exactly on MaxPacket is allowed to stand; one byte
// more forces the pending batch out first.
func TestBatchAtMaxPacketBoundary(t *testing.T) {
	plen := len(pastry.AppendMessage(nil, hb(1)))
	exact := HeaderLen + 2*entrySize(plen)

	co, clk, flushes := newTestCoalescer(time.Millisecond, exact, 0)
	co.Send("p", ref(1), hb(1))
	co.Send("p", ref(1), hb(2))
	if len(*flushes) != 0 || co.Pending("p") != 2 {
		t.Fatalf("exact-fit batch flushed early (%d flushes, %d pending)", len(*flushes), co.Pending("p"))
	}
	clk.fire()
	if len(*flushes) != 1 || len((*flushes)[0].Frame) != exact {
		t.Fatalf("want one frame of exactly %d bytes, got %+v", exact, *flushes)
	}

	co, clk, flushes = newTestCoalescer(time.Millisecond, exact-1, 0)
	co.Send("p", ref(1), hb(1))
	co.Send("p", ref(1), hb(2)) // would exceed MaxPacket: first message flushes alone
	if len(*flushes) != 1 || len((*flushes)[0].Msgs) != 1 || co.Pending("p") != 1 {
		t.Fatalf("overflow did not flush the pending batch: %d flushes, %d pending",
			len(*flushes), co.Pending("p"))
	}
	clk.fire()
	if len(*flushes) != 2 || len((*flushes)[1].Msgs) != 1 {
		t.Fatalf("second message did not flush on the window: %+v", *flushes)
	}
}

func TestOversizeSingleRejected(t *testing.T) {
	co, clk, flushes := newTestCoalescer(time.Millisecond, 0, 48)
	big := &pastry.AppDirect{From: ref(1), Payload: bytes.Repeat([]byte("x"), 64)}
	if _, err := co.Send("p", ref(2), big); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize send: %v, want ErrOversize", err)
	}
	if len(*flushes) != 0 || co.Pending("p") != 0 {
		t.Fatal("oversize message was queued or emitted")
	}
	// A message that fits still goes through on the same queue.
	if _, err := co.Send("p", ref(2), &pastry.Ack{Xfer: 1, From: ref(1)}); err != nil {
		t.Fatal(err)
	}
	clk.fire()
	if len(*flushes) != 1 || len((*flushes)[0].Msgs) != 1 {
		t.Fatalf("%d flushes after the window", len(*flushes))
	}
}

// Window zero degenerates to one message per datagram: every send emits
// immediately, and the frame is byte-identical to EncodeSingle.
func TestWindowZeroDegeneratesToSingles(t *testing.T) {
	co, _, flushes := newTestCoalescer(0, 0, 0)
	for i := uint64(1); i <= 3; i++ {
		if _, err := co.Send("p", ref(9), hb(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(*flushes) != 3 {
		t.Fatalf("%d flushes, want one per message", len(*flushes))
	}
	for i, f := range *flushes {
		want := EncodeSingle(hb(uint64(i + 1)))
		if !bytes.Equal(f.Frame, want) {
			t.Fatalf("flush %d frame %x, want EncodeSingle %x", i, f.Frame, want)
		}
		if f.SingleBytes != len(f.Frame) || f.Held != 0 {
			t.Fatalf("flush %d: single=%d frame=%d held=%v", i, f.SingleBytes, len(f.Frame), f.Held)
		}
	}
}

// A latency-critical message flushes immediately and carries the pending
// batch for the same peer with it.
func TestUrgentPiggybacksPendingBatch(t *testing.T) {
	co, _, flushes := newTestCoalescer(time.Millisecond, 0, 0)
	co.Send("p", ref(9), hb(1))
	co.Send("p", ref(9), hb(2))
	urgent := &pastry.AppDirect{From: ref(1), Payload: []byte("now")}
	co.Send("p", ref(9), urgent)
	if len(*flushes) != 1 {
		t.Fatalf("%d flushes, want immediate flush on urgent send", len(*flushes))
	}
	f := (*flushes)[0]
	if len(f.Msgs) != 3 || f.Msgs[2] != pastry.Message(urgent) {
		t.Fatalf("urgent flush carried %d messages", len(f.Msgs))
	}
	if co.Pending("p") != 0 {
		t.Fatal("queue not drained")
	}
}

// Delay-tolerant messages alone wait the long window; a short-budget
// message joining the queue pulls the deadline in to its own window.
func TestLongWindowForDelayTolerant(t *testing.T) {
	newCo := func() (*Coalescer, *testClock, *[]Flush) {
		clk := &testClock{}
		flushes := new([]Flush)
		co := NewCoalescer(Config{
			Window:     10 * time.Millisecond,
			LongWindow: 100 * time.Millisecond,
			Now:        clk.Now,
			After:      clk.After,
			Emit:       func(f Flush) { *flushes = append(*flushes, keep(f)) },
		})
		return co, clk, flushes
	}

	// A lone heartbeat waits the full long window.
	co, clk, flushes := newCo()
	co.Send("p", ref(9), hb(1))
	clk.fire()
	if len(*flushes) != 1 || (*flushes)[0].Held != 100*time.Millisecond {
		t.Fatalf("lone heartbeat: %+v, want one flush held 100ms", *flushes)
	}

	// An ack arriving mid-wait shrinks the deadline to its short window
	// and both leave together; the stale long timer finds an empty queue.
	co, clk, flushes = newCo()
	co.Send("p", ref(9), hb(1))
	clk.now = 50 * time.Millisecond
	co.Send("p", ref(9), &pastry.Ack{Xfer: 1, From: ref(1)})
	clk.fire()
	if len(*flushes) != 1 {
		t.Fatalf("%d flushes, want the shrunk deadline to flush once", len(*flushes))
	}
	f := (*flushes)[0]
	if len(f.Msgs) != 2 || f.Held != 60*time.Millisecond {
		t.Fatalf("flush %+v, want 2 msgs held 60ms (heartbeat from t=0, ack deadline t=60ms)", f)
	}

	// Classification: heartbeats and informational gossip tolerate delay,
	// probes and acks do not (their timers arm at protocol send).
	for _, m := range []pastry.Message{hb(1), &pastry.DistReport{}, &pastry.RowAnnounce{}} {
		if !DelayTolerant(m) {
			t.Fatalf("%T should be delay-tolerant", m)
		}
	}
	for _, m := range []pastry.Message{&pastry.Ack{}, &pastry.LSProbe{}, &pastry.RTProbe{}} {
		if DelayTolerant(m) {
			t.Fatalf("%T must not be delay-tolerant", m)
		}
	}
}

// A batch with one malformed inner message drops only that message.
func TestBatchDropsOnlyMalformedEntry(t *testing.T) {
	good1 := pastry.AppendMessage(nil, hb(1))
	junk := []byte{0xff, 0x00, 0x01} // no such message tag
	good2 := pastry.AppendMessage(nil, hb(2))

	frame := []byte{Version, frameBatch}
	for _, p := range [][]byte{good1, junk, good2} {
		frame = appendUvarint(frame, uint64(len(p)))
		frame = append(frame, p...)
	}
	msgs, sizes, bad, err := DecodeAll(frame)
	if bad != 1 || err == nil {
		t.Fatalf("bad=%d err=%v, want one dropped message with its error", bad, err)
	}
	if len(msgs) != 2 || len(sizes) != 2 {
		t.Fatalf("%d messages survived, want 2", len(msgs))
	}
	if msgs[0].(*pastry.Heartbeat).From != ref(1) || msgs[1].(*pastry.Heartbeat).From != ref(2) {
		t.Fatalf("surviving messages wrong: %#v", msgs)
	}
}

func TestStructuralFrameErrors(t *testing.T) {
	good := pastry.AppendMessage(nil, hb(1))
	cases := map[string][]byte{
		"empty":            {},
		"short":            {Version},
		"bad version":      append([]byte{Version + 1, frameSingle}, good...),
		"unknown kind":     append([]byte{Version, 9}, good...),
		"empty single":     {Version, frameSingle},
		"empty batch":      {Version, frameBatch},
		"zero-len entry":   {Version, frameBatch, 0x00},
		"entry overrun":    {Version, frameBatch, 0x7f, 0x01},
		"truncated prefix": {Version, frameBatch, 0x80},
	}
	for name, frame := range cases {
		if w, err := Walk(frame); err == nil || w.Len() != 0 || w.Next() != nil {
			t.Errorf("%s: the walk yields %d payloads of %x, err=%v", name, w.Len(), frame, err)
		}
		if msgs, _, _, err := DecodeAll(frame); err == nil || msgs != nil {
			t.Errorf("%s: DecodeAll returned %d msgs, err=%v", name, len(msgs), err)
		}
	}
}

// A Send from inside Emit — an emitter that reports a failed write to a
// peer, say — finds the queue empty and fills a slice and a buffer of its own:
// the frame being emitted is not overwritten under its receiver, and the
// re-entrant message is neither merged into it nor lost when the outer
// flush puts its slice back.
func TestReentrantSendDuringEmit(t *testing.T) {
	for _, window := range []time.Duration{0, time.Millisecond} {
		clk := &testClock{}
		var flushes []Flush
		var co *Coalescer
		reentered := false
		urgent := &pastry.AppDirect{From: ref(1), Payload: []byte("now")}
		co = NewCoalescer(Config{
			Window: window,
			Now:    clk.Now,
			After:  clk.After,
			Emit: func(f Flush) {
				before := bytes.Clone(f.Frame)
				if !reentered {
					reentered = true
					co.Send("p", ref(9), hb(2)) // same peer, same queue
				}
				if !bytes.Equal(f.Frame, before) {
					t.Errorf("window %v: a re-entrant Send rewrote the frame being emitted", window)
				}
				flushes = append(flushes, keep(f))
			},
		})
		co.Send("p", ref(9), urgent)
		clk.fire()
		if len(flushes) != 2 || co.Pending("p") != 0 {
			t.Fatalf("window %v: %d flushes, %d pending, want both messages out", window, len(flushes), co.Pending("p"))
		}
		// With no window the inner flush completes first.
		outer, inner := flushes[0], flushes[1]
		if window == 0 {
			outer, inner = inner, outer
		}
		if len(outer.Msgs) != 1 || outer.Msgs[0] != pastry.Message(urgent) || !bytes.Equal(outer.Frame, EncodeSingle(urgent)) {
			t.Errorf("window %v: outer flush %+v", window, outer)
		}
		if len(inner.Msgs) != 1 || !bytes.Equal(inner.Frame, EncodeSingle(hb(2))) {
			t.Errorf("window %v: re-entrant flush %+v", window, inner)
		}
		// The queue still works, and batches, afterwards.
		flushes = flushes[:0]
		co.Send("p", ref(9), hb(3))
		co.Send("p", ref(9), urgent)
		sent := 0
		for _, f := range flushes {
			sent += len(f.Msgs)
		}
		if sent != 2 || window > 0 && len(flushes) != 1 {
			t.Errorf("window %v: after re-entrancy, 2 sends gave %d flushes of %d messages", window, len(flushes), sent)
		}
	}
}

// Flush.Msgs is the queue's own slice, lent for the duration of Emit: the
// next batch reuses it, and between batches it holds on to no message.
func TestFlushMsgsReusedAndCleared(t *testing.T) {
	var lent []pastry.Message
	co := NewCoalescer(Config{
		Now:   func() time.Duration { return 0 },
		After: func(time.Duration, func()) {},
		Emit:  func(f Flush) { lent = f.Msgs },
	})
	co.Send("p", ref(9), hb(1))
	first := lent
	if len(first) != 1 || first[0] != nil {
		t.Fatalf("after Emit the lent slice is %v, want its one entry cleared", first)
	}
	co.Send("p", ref(9), hb(2))
	if &lent[0] != &first[0] {
		t.Fatal("the second flush did not reuse the queue's slice")
	}
}

// TestWireAllocations pins the steady state of both directions: walking a
// frame allocates nothing, and neither does sending and flushing a lone
// message (the window-0 path every live datagram takes).
func TestWireAllocations(t *testing.T) {
	single := EncodeSingle(hb(1))
	batch := []byte{Version, frameBatch}
	for i := uint64(1); i <= 3; i++ {
		p := pastry.AppendMessage(nil, hb(i))
		batch = append(appendUvarint(batch, uint64(len(p))), p...)
	}
	var bytesSeen int
	walk := func(frame []byte, want int) func() {
		return func() {
			w, err := Walk(frame)
			if err != nil || w.Len() != want {
				t.Fatalf("Walk: %d payloads, err=%v", w.Len(), err)
			}
			for p := w.Next(); p != nil; p = w.Next() {
				bytesSeen += len(p)
			}
		}
	}
	co := NewCoalescer(Config{
		Now:   func() time.Duration { return 0 },
		After: func(time.Duration, func()) {},
		Emit:  func(f Flush) { bytesSeen += len(f.Frame) },
	})
	m, to := hb(1), ref(9)
	for name, f := range map[string]func(){
		"Walk single":      walk(single, 1),
		"Walk batch of 3":  walk(batch, 3),
		"Send+flush, lone": func() { co.Send("p", to, m) },
	} {
		f() // the first send builds the peer's queue
		if got := testing.AllocsPerRun(200, f); got != 0 {
			t.Errorf("%s: %v allocs, want 0", name, got)
		}
	}
}

func TestDiscardAllAndDrop(t *testing.T) {
	co, clk, flushes := newTestCoalescer(time.Millisecond, 0, 0)
	co.Send("a", ref(1), hb(1))
	co.Send("b", ref(2), hb(2))
	co.DiscardAll()
	clk.fire()
	if len(*flushes) != 0 {
		t.Fatalf("discarded messages were emitted: %+v", *flushes)
	}
	if co.Peers() != 2 {
		t.Fatalf("DiscardAll removed queues: %d peers", co.Peers())
	}
	co.Send("a", ref(1), hb(3))
	co.Drop("a")
	co.Drop("never-seen") // no-op
	clk.fire()
	if len(*flushes) != 0 || co.Peers() != 1 || co.Pending("a") != 0 {
		t.Fatalf("Drop left state behind: %d flushes, %d peers", len(*flushes), co.Peers())
	}
}

func TestFlushAll(t *testing.T) {
	co, _, flushes := newTestCoalescer(time.Minute, 0, 0)
	co.Send("a", ref(1), hb(1))
	co.Send("b", ref(2), hb(2))
	co.FlushAll()
	if len(*flushes) != 2 {
		t.Fatalf("%d flushes, want both queues drained", len(*flushes))
	}
	co.FlushAll() // empty queues flush nothing
	if len(*flushes) != 2 {
		t.Fatal("empty FlushAll emitted frames")
	}
}

func TestControlClassification(t *testing.T) {
	if Control(pastry.CatLookup) || Control(pastry.CatApp) {
		t.Fatal("lookups and app traffic are not control")
	}
	for _, cat := range []pastry.Category{
		pastry.CatJoin, pastry.CatDistance, pastry.CatLeafSet,
		pastry.CatRTProbe, pastry.CatAck,
	} {
		if !Control(cat) {
			t.Fatalf("%v should be control", cat)
		}
	}
	if Coalescable(&pastry.Envelope{}) || Coalescable(&pastry.AppDirect{}) {
		t.Fatal("latency-critical messages must not wait for the window")
	}
	if !Coalescable(hb(1)) || !Coalescable(&pastry.Ack{}) {
		t.Fatal("heartbeats and acks should coalesce")
	}
}

func BenchmarkEncodeSingle(b *testing.B) {
	m := hb(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := GetBuf()
		*buf = AppendSingle(*buf, pastry.AppendMessage((*buf)[:0], m))
		PutBuf(buf)
	}
}

func BenchmarkCoalescerSendWindowZero(b *testing.B) {
	co, _, _ := newTestCoalescer(0, 0, 0)
	co.cfg.Emit = func(Flush) {}
	m := hb(1)
	to := ref(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co.Send("p", to, m)
	}
}

func BenchmarkCoalescerBatch8(b *testing.B) {
	clk := &testClock{}
	co := NewCoalescer(Config{
		Window: time.Millisecond,
		Now:    clk.Now,
		After:  clk.After,
		Emit:   func(Flush) {},
	})
	m := hb(1)
	to := ref(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co.Send("p", to, m)
		if (i+1)%8 == 0 {
			clk.fire()
		}
	}
}

func BenchmarkDecodeAllBatch8(b *testing.B) {
	co, clk, flushes := newTestCoalescer(time.Millisecond, 0, 0)
	for i := uint64(0); i < 8; i++ {
		co.Send("p", ref(9), hb(i+1))
	}
	clk.fire()
	frame := (*flushes)[0].Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecodeAll(frame); err != nil {
			b.Fatal(err)
		}
	}
}
