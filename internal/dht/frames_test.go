package dht

import (
	"bytes"
	"testing"

	"mspastry/internal/codec/codectest"
	"mspastry/internal/id"
	"mspastry/internal/store"
)

// TestRecordedFrames pins the wire bytes of every dht message kind to
// frames recorded from the hand-written codecs this package used to have,
// and checks that each recorded frame decodes to what was encoded.
func TestRecordedFrames(t *testing.T) {
	lo, hi := id.New(1, 1), id.New(9, 9)
	live := store.Object{Key: id.New(2, 2), Version: 300, Origin: 1 << 40, Value: []byte("value")}
	dead := store.Object{Key: id.New(3, 3), Version: 7, Origin: 1, Tombstone: true}
	sums := []store.Summary{live.Summarize(), dead.Summarize()}
	layer := syncBuckets{sid: 5}
	for i := range layer.buckets {
		layer.buckets[i][0], layer.buckets[i][store.DigestLen-1] = byte(i), ^byte(i)
	}
	samples := []struct {
		name, decoder string
		msg           any
	}{
		{"put", "request", &request{kindPut, 42, []byte("value")}},
		{"put-empty", "request", &request{kindPut, 128, nil}},
		{"get", "request", &request{kindGet, 7, nil}},
		{"delete", "request", &request{kindDelete, ^uint64(0), nil}},
		{"putack", "putack", &ack{kindPutAck, 9}},
		{"deleteack", "deleteack", &ack{kindDeleteAck, 13}},
		{"getresp", "getresp", &getResp{5, true, []byte("x")}},
		{"getresp-missing", "getresp", &getResp{reqID: 300}},
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
	}
	kinds := map[byte]bool{}
	for _, s := range samples {
		frame := codectest.WantFrame(t, s.name, encode(s.msg))
		kinds[frame[0]] = true
		// Encoders are injective, so a recorded frame that re-encodes to
		// itself decoded to the values the sample was built from.
		if back, ok := reencoder(s.decoder)(frame); !ok || !bytes.Equal(back, frame) {
			t.Errorf("%s: recorded frame decodes (ok=%v) and re-encodes to %x", s.name, ok, back)
		}
	}
	if len(kinds) != int(kindHandoffHave) {
		t.Errorf("samples cover %d of %d kinds", len(kinds), kindHandoffHave)
	}
}

// TestCodecAllocations pins what passing messages to encode and decode
// as `any` must not cost: the message stays on the caller's stack, so an
// encode allocates its output only and a decode only what it decoded.
func TestCodecAllocations(t *testing.T) {
	value := make([]byte, 1024)
	resp := encode(&getResp{5, true, value})
	keys := encode(&syncKeys{sums: make([]store.Summary, 3)})
	for name, pin := range map[string]struct {
		want float64
		f    func()
	}{
		"encode getResp":  {1, func() { encode(&getResp{5, true, value}) }},
		"encode get":      {1, func() { encode(&request{kindGet, 7, nil}) }},
		"decode getResp":  {0, func() { decode(resp, &getResp{}) }},
		"decode ack":      {0, func() { decode(resp, &ack{kind: kindPutAck}) }},
		"decode syncKeys": {1, func() { decode(keys, &syncKeys{}) }},
	} {
		if got := testing.AllocsPerRun(100, pin.f); got != pin.want {
			t.Errorf("%s: %v allocs, want %v", name, got, pin.want)
		}
	}
}
