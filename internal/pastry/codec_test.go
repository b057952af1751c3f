package pastry

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"mspastry/internal/codec"
	"mspastry/internal/id"
)

// encodeMessage serialises a message into a fresh buffer, which stays on
// the caller's stack when it does not escape.
func encodeMessage(m Message) []byte { return AppendMessage(make([]byte, 0, 256), m) }

// sameWire reports whether two messages carry the same wire content: every
// exported field compared, the spare pointers (an envelope's inline ack
// and its lookup's first-forward envelope, a probe's inline reply, an
// echo's inline report) not.
func sameWire(a, b Message) bool { return reflect.DeepEqual(wireContent(a), wireContent(b)) }

// wireContent returns a copy of m with its spare pointers set to nil: for
// an envelope, a copy of it and its Lookup.
func wireContent(m Message) Message {
	switch m := m.(type) {
	case *Envelope:
		cp := *m
		cp.spareAck = nil
		if m.Lookup != nil {
			lk := *m.Lookup
			lk.spareEnv = nil
			cp.Lookup = &lk
		}
		return &cp
	case *LSProbe:
		cp := *m
		cp.spareReply = nil
		return &cp
	case *RTProbe:
		cp := *m
		cp.spareReply = nil
		return &cp
	case *DistProbe:
		cp := *m
		cp.spareReply = nil
		return &cp
	case *DistProbeReply:
		cp := *m
		cp.spareReport = nil
		return &cp
	}
	return m
}

// checkSpares fails unless a decoded message carries the spares its
// receiver takes: a lookup envelope its inline ack and its own envelope as
// the lookup's first forward, a probe its inline reply. A decoded echo
// carries no report: the report is its prober's, built beside the probe.
func checkSpares(t *testing.T, name string, m Message) {
	t.Helper()
	switch m := m.(type) {
	case *Envelope:
		if m.Lookup != nil && (m.spareAck == nil || m.Lookup.spareEnv != m) {
			t.Errorf("%s: decoded lookup envelope lacks its spares: ack %p, envelope %p (want %p)",
				name, m.spareAck, m.Lookup.spareEnv, m)
		}
	case *LSProbe:
		if m.spareReply == nil {
			t.Errorf("%s: decoded leaf-set probe lacks its spare reply", name)
		}
	case *RTProbe:
		if m.spareReply == nil {
			t.Errorf("%s: decoded liveness probe lacks its spare reply", name)
		}
	case *DistProbe:
		if m.spareReply == nil || m.spareReply.spareReport != nil {
			t.Errorf("%s: decoded distance probe has spare echo %p, want one without a report", name, m.spareReply)
		}
	case *DistProbeReply:
		if m.spareReport != nil {
			t.Errorf("%s: decoded echo carries a spare report", name)
		}
	}
}

func appendRef(buf []byte, r NodeRef) []byte {
	c := codec.Appender(buf)
	walkRef(&c, &r)
	return c.Bytes()
}

func randRef(rng *rand.Rand) NodeRef {
	return NodeRef{ID: id.Random(rng), Addr: "127.0.0.1:12345"}
}

func randRefs(rng *rand.Rand, n int) []NodeRef {
	if n == 0 {
		return nil
	}
	out := make([]NodeRef, n)
	for i := range out {
		out[i] = randRef(rng)
	}
	return out
}

func sampleMessages(rng *rand.Rand) []Message {
	return []Message{
		&Envelope{Xfer: rng.Uint64(), NeedAck: true, From: randRef(rng), TrtHint: time.Minute,
			Lookup: &Lookup{Key: id.Random(rng), Seq: 7, Origin: randRef(rng), Issued: 3 * time.Second, Hops: 2, Payload: []byte("hello")}},
		&Envelope{Xfer: 1, Retx: true, From: randRef(rng),
			Join: &JoinRequest{Joiner: randRef(rng), Rows: randRefs(rng, 5), Hops: 3}},
		&Envelope{Xfer: 2, From: randRef(rng), Lookup: &Lookup{Key: id.Random(rng), Origin: randRef(rng), NoAck: true}},
		&Ack{Xfer: 42, From: randRef(rng), TrtHint: 90 * time.Second},
		&LSProbe{From: randRef(rng), Leaves: randRefs(rng, 8), Failed: randRefs(rng, 2), NeedNear: true, TrtHint: time.Second},
		&LSProbe{From: randRef(rng)},
		&LSProbeReply{From: randRef(rng), Leaves: randRefs(rng, 16), Failed: nil, Near: randRefs(rng, 33), TrtHint: 0},
		&Heartbeat{From: randRef(rng), TrtHint: 5 * time.Minute},
		&RTProbe{From: randRef(rng)},
		&RTProbeReply{From: randRef(rng), TrtHint: time.Hour},
		&JoinReply{Rows: randRefs(rng, 40), Leaves: randRefs(rng, 32)},
		&DistProbe{From: randRef(rng), Seq: 99},
		&DistProbeReply{From: randRef(rng), Seq: 99},
		&DistReport{From: randRef(rng), RTT: 83 * time.Millisecond},
		&RowRequest{From: randRef(rng), Row: 3},
		&RowReply{From: randRef(rng), Row: 3, Entries: randRefs(rng, 15)},
		&RowAnnounce{From: randRef(rng), Row: 0, Entries: randRefs(rng, 15)},
		&RepairRequest{From: randRef(rng), Row: 2, Col: 11},
		&RepairReply{From: randRef(rng), Row: 2, Col: 11, Entries: randRefs(rng, 4)},
		&NNStateRequest{From: randRef(rng)},
		&NNStateReply{From: randRef(rng), Leaves: randRefs(rng, 10), Entries: randRefs(rng, 20)},
		&AppDirect{From: randRef(rng), Payload: []byte("response body")},
		&AppDirect{From: randRef(rng)},
	}
}

func TestCodecRoundTripAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range sampleMessages(rng) {
		buf := encodeMessage(m)
		got, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !sameWire(m, got) {
			t.Fatalf("%T round trip mismatch:\n  in:  %#v\n  out: %#v", m, m, got)
		}
		checkSpares(t, fmt.Sprintf("%T", m), got)
	}
}

func TestCodecDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range sampleMessages(rng) {
		a := encodeMessage(m)
		b := encodeMessage(m)
		if string(a) != string(b) {
			t.Fatalf("%T: non-deterministic encoding", m)
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},    // tag 0 invalid
		{0xff}, // unknown tag
		{tagAck},
		{tagLSProbe, 1, 2, 3},
	}
	for _, c := range cases {
		if _, err := DecodeMessage(c); err == nil {
			t.Fatalf("garbage %v accepted", c)
		}
	}
}

func TestCodecRejectsTrailingBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	buf := encodeMessage(&Heartbeat{From: randRef(rng)})
	buf = append(buf, 0xaa)
	if _, err := DecodeMessage(buf); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestCodecRejectsOversizedSlices(t *testing.T) {
	// Hand-craft an LSProbe claiming 2^40 leaves.
	rng := rand.New(rand.NewSource(4))
	buf := []byte{tagLSProbe}
	buf = appendRef(buf, randRef(rng))
	buf = append(buf, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01) // huge uvarint
	if _, err := DecodeMessage(buf); err == nil {
		t.Fatal("oversized slice accepted")
	}
}

func TestCodecFuzzNoPanics(t *testing.T) {
	// Decoding arbitrary bytes must never panic; it may error.
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decode panicked on %v: %v", data, r)
			}
		}()
		_, _ = DecodeMessage(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecTruncationNoPanics(t *testing.T) {
	// Every prefix of every valid message must decode cleanly or error,
	// never panic.
	rng := rand.New(rand.NewSource(5))
	for _, m := range sampleMessages(rng) {
		buf := encodeMessage(m)
		for cut := 0; cut < len(buf); cut++ {
			if _, err := DecodeMessage(buf[:cut]); err == nil && cut < len(buf) {
				// A strict prefix that decodes without error would be a
				// framing ambiguity.
				t.Fatalf("%T: prefix of %d/%d bytes decoded cleanly", m, cut, len(buf))
			}
		}
	}
}

// lookupEnvelope is the message the codec benchmarks and the allocation
// pins below use: what a lookup hop puts on the wire.
func lookupEnvelope() *Envelope {
	rng := rand.New(rand.NewSource(1))
	return &Envelope{Xfer: 9, NeedAck: true, From: randRef(rng),
		Lookup: &Lookup{Key: id.Random(rng), Seq: 7, Origin: randRef(rng), Payload: make([]byte, 64)}}
}

// TestCodecAllocations pins what the one-walk codec must not cost: sizing
// and encoding into a buffer with room allocate nothing, and decoding
// allocates the message's own parts only (the envelope with its lookup in
// one object, two address strings, payload) — and with a warm table of
// addresses, as in a transport's read loop, no strings: the message
// objects alone. A decoded probe is one object with the reply it is owed.
func TestCodecAllocations(t *testing.T) {
	env := lookupEnvelope()
	frame := encodeMessage(env)
	buf := make([]byte, 0, 2*len(frame))
	var size int
	names := codec.NewInterner(16)
	bare := encodeMessage(frameSamples[1].msg) // envelope-lookup-min: no payload
	distProbe := encodeMessage(&DistProbe{From: env.From, Seq: 99})
	for _, f := range [][]byte{frame, bare, distProbe} {
		if _, err := DecodeInterned(f, names); err != nil {
			t.Fatal(err)
		}
	}
	for name, pin := range map[string]struct {
		max float64
		f   func()
	}{
		"MessageWireSize":            {0, func() { size += MessageWireSize(env) }},
		"AppendMessage":              {0, func() { buf = AppendMessage(buf[:0], env) }},
		"encodeMessage":              {0, func() { size += len(encodeMessage(env)) }}, // the buffer stays on the stack
		"DecodeMessage":              {4, func() { DecodeMessage(frame) }},
		"DecodeInterned":             {2, func() { DecodeInterned(frame, names) }}, // envelope with lookup, payload
		"DecodeInterned, no payload": {1, func() { DecodeInterned(bare, names) }},
		"DecodeInterned, DistProbe":  {1, func() { DecodeInterned(distProbe, names) }}, // the probe with its echo inline
	} {
		if got := testing.AllocsPerRun(100, pin.f); got > pin.max {
			t.Errorf("%s: %v allocs per message, want at most %v", name, got, pin.max)
		}
	}
}

// TestDecodeClearsAbsentParts: a decoded envelope starts with its Lookup
// in place (the receive layout), so a frame that carries no lookup must
// read back with Lookup nil, and one that carries neither part with Join
// nil too.
func TestDecodeClearsAbsentParts(t *testing.T) {
	seen := 0
	for _, s := range frameSamples {
		if s.name != "envelope-join" && s.name != "envelope-bare" {
			continue
		}
		seen++
		m, err := DecodeMessage(encodeMessage(s.msg))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		env := m.(*Envelope)
		if env.Lookup != nil {
			t.Errorf("%s: decoded with Lookup %+v, want nil", s.name, *env.Lookup)
		}
		if wantJoin := s.name == "envelope-join"; (env.Join != nil) != wantJoin {
			t.Errorf("%s: decoded Join %+v, want present=%v", s.name, env.Join, wantJoin)
		}
		if env.Category() == CatLookup {
			t.Errorf("%s: decoded as lookup traffic", s.name)
		}
	}
	if seen != 2 {
		t.Fatalf("found %d of the 2 samples", seen)
	}
}

func BenchmarkCodecEncodeLookupEnvelope(b *testing.B) {
	env := lookupEnvelope()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encodeMessage(env)
	}
}

func BenchmarkCodecDecodeLookupEnvelope(b *testing.B) {
	buf := encodeMessage(lookupEnvelope())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMessage(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMessageWireSizeMatchesEncoding pins the arithmetic size computation
// to the real encoder for every message type, including varint boundary
// values (0, 127, 128, max) and negative durations.
func TestMessageWireSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	msgs := sampleMessages(rng)
	msgs = append(msgs,
		&Ack{Xfer: 0, From: NodeRef{ID: id.Random(rng)}, TrtHint: -time.Second},
		&Ack{Xfer: 127, From: randRef(rng)},
		&Ack{Xfer: 128, From: randRef(rng)},
		&Ack{Xfer: ^uint64(0), From: randRef(rng), TrtHint: time.Duration(^uint64(0) >> 1)},
		&Envelope{Xfer: 300, From: randRef(rng), TrtHint: -time.Hour,
			Lookup: &Lookup{Key: id.Random(rng), Seq: ^uint64(0), TraceID: 1 << 50,
				Origin: randRef(rng), Issued: -time.Minute, Hops: 200,
				Payload: make([]byte, 300)}},
	)
	for _, m := range msgs {
		if got, want := MessageWireSize(m), len(AppendMessage(nil, m)); got != want {
			t.Errorf("MessageWireSize(%T) = %d, want %d", m, got, want)
		}
	}
}
