package dht

import (
	"bytes"
	"strings"
	"testing"

	"mspastry/internal/codec/codectest"
	"mspastry/internal/hotspot"
	"mspastry/internal/id"
	"mspastry/internal/store"
)

// frameSample is a message recorded in testdata/frames.golden under name,
// and the decoders entry that reads it.
type frameSample struct {
	name, decoder string
	msg           any
}

// frameSamples has every dht message kind, with its variable-length
// fields empty and at their limits.
func frameSamples() []frameSample {
	k := id.New(0x1122334455667788, 0x99aabbccddeeff00)
	vias := []via{{k, "host:1"}, {id.Max, strings.Repeat("a", maxViaAddr)}}
	lo, hi := id.New(1, 1), id.New(9, 9)
	live := store.Object{Key: id.New(2, 2), Version: 300, Origin: 1 << 40, Value: []byte("value")}
	dead := store.Object{Key: id.New(3, 3), Version: 7, Origin: 1, Tombstone: true}
	sums := []store.Summary{live.Summarize(), dead.Summarize()}
	layer := syncBuckets{sid: 5}
	for i := range layer.buckets {
		layer.buckets[i][0], layer.buckets[i][store.DigestLen-1] = byte(i), ^byte(i)
	}
	return []frameSample{
		{"put", "request", &request{kindPut, 42, []byte("value")}},
		{"put-empty", "request", &request{kindPut, 128, nil}},
		{"delete", "request", &request{kindDelete, ^uint64(0), nil}},
		{"putack", "putack", &ack{kindPutAck, 9}},
		{"deleteack", "deleteack", &ack{kindDeleteAck, 13}},
		{"replicate", "replicate", &live},
		{"replicate-tombstone", "replicate", &dead},
		{"syncroot", "syncroot", &syncRoot{77, lo, hi, sums[0].Dig}},
		{"syncrootok", "syncrootok", &ack{kindSyncRootOK, 42}},
		{"syncbuckets", "syncbuckets", &layer},
		{"synckeys", "synckeys", &syncKeys{lo, hi, 0xf0f0_0000_0000_0001, sums}},
		{"synckeys-empty", "synckeys", &syncKeys{hi: id.Max}},
		{"syncpull", "syncpull", &syncPull{[]id.ID{id.New(4, 4), id.New(5, 5)}}},
		{"syncpull-empty", "syncpull", &syncPull{}},
		{"handoffoffer", "handoffoffer", &sums[0]},
		{"handoffoffer-tombstone", "handoffoffer", &sums[1]},
		{"handoffwant", "handoffwant", &handoffKey{kindHandoffWant, id.New(6, 6)}},
		{"handoffhave", "handoffhave", &handoffKey{kindHandoffHave, id.New(7, 7)}},
		{"getvia", "getvia", &getVia{reqID: 77, vias: vias[:1]}},
		{"getvia-empty", "getvia", &getVia{reqID: 300}},
		{"getvia-max", "getvia", &getVia{reqID: ^uint64(0), vias: vias}},
		{"getvia-bypass", "getvia", &getVia{reqID: 7, bypass: true}},
		{"cachedreply", "cachedreply", &cachedReply{12, true, true, false, 9, 1 << 40, []byte("value")}},
		{"cachedreply-root", "cachedreply", &cachedReply{reqID: 12, found: true, version: 9, origin: 4}},
		{"cachedreply-missing", "cachedreply", &cachedReply{reqID: 13}},
		{"cachedreply-bypass", "cachedreply", &cachedReply{5, true, false, true, 2, 3, []byte("x")}},
		{"deposit", "deposit", &hotspot.Entry{Key: k, Version: 3, Origin: 2, Value: []byte("vv")}},
		{"deposit-empty", "deposit", &hotspot.Entry{Key: k, Version: 128}},
		{"invalidate", "invalidate", &invalidate{k, 5, 6}},
	}
}

// TestRecordedFrames pins the wire bytes of every dht message kind to
// frames recorded from the hand-written codecs this package and the
// hotspot package used to have, and checks that each recorded frame
// decodes to what was encoded.
func TestRecordedFrames(t *testing.T) {
	kinds := map[byte]bool{}
	for _, s := range frameSamples() {
		frame := codectest.WantFrame(t, s.name, encode(s.msg))
		kinds[frame[0]] = true
		// Encoders are injective, so a recorded frame that re-encodes to
		// itself decoded to the values the sample was built from.
		if back, ok := reencoder(s.decoder)(frame); !ok || !bytes.Equal(back, frame) {
			t.Errorf("%s: recorded frame decodes (ok=%v) and re-encodes to %x", s.name, ok, back)
		}
	}
	if want := len(wireKinds(t)); len(kinds) != want {
		t.Errorf("samples cover %d of %d kinds", len(kinds), want)
	}
}

// TestCodecAllocations pins what passing messages to encode and decode
// as `any` must not cost: the message stays on the caller's stack, so an
// encode allocates its output only and a decode only what it decoded.
func TestCodecAllocations(t *testing.T) {
	value := make([]byte, 1024)
	reply := encode(&cachedReply{reqID: 5, found: true, value: value})
	keys := encode(&syncKeys{sums: make([]store.Summary, 3)})
	get := encode(&getVia{reqID: 7, vias: []via{{addr: "10.0.0.1:9000"}}})
	for name, pin := range map[string]struct {
		want float64
		f    func()
	}{
		"encode cachedReply": {1, func() { encode(&cachedReply{reqID: 5, found: true, value: value}) }},
		"encode getVia":      {1, func() { encode(&getVia{reqID: 7, bypass: true}) }},
		"decode cachedReply": {0, func() { decode(reply, &cachedReply{}) }},
		"decode ack":         {0, func() { decode(reply, &ack{kind: kindPutAck}) }},
		"decode syncKeys":    {1, func() { decode(keys, &syncKeys{}) }},
		"decode getVia":      {2, func() { decode(get, &getVia{}) }}, // the via list and its one address
	} {
		if got := testing.AllocsPerRun(100, pin.f); got != pin.want {
			t.Errorf("%s: %v allocs, want %v", name, got, pin.want)
		}
	}
}
