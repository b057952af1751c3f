package dht

import (
	"testing"

	"mspastry/internal/codec/codectest"
	"mspastry/internal/hotspot"
	"mspastry/internal/id"
	"mspastry/internal/store"
)

// decoders has one empty message per way a dht payload is decoded. The
// recorded-frame test and all fuzz targets run off this one table.
var decoders = map[string]func() any{
	"request":      func() any { return new(request) },
	"putack":       func() any { return &ack{kind: kindPutAck} },
	"deleteack":    func() any { return &ack{kind: kindDeleteAck} },
	"replicate":    func() any { return new(store.Object) },
	"syncroot":     func() any { return new(syncRoot) },
	"syncrootok":   func() any { return &ack{kind: kindSyncRootOK} },
	"syncbuckets":  func() any { return new(syncBuckets) },
	"synckeys":     func() any { return new(syncKeys) },
	"syncpull":     func() any { return new(syncPull) },
	"handoffoffer": func() any { return new(store.Summary) },
	"handoffwant":  func() any { return &handoffKey{kind: kindHandoffWant} },
	"handoffhave":  func() any { return &handoffKey{kind: kindHandoffHave} },
	"getvia":       func() any { return new(getVia) },
	"cachedreply":  func() any { return new(cachedReply) },
	"deposit":      func() any { return new(hotspot.Entry) },
	"invalidate":   func() any { return new(invalidate) },
}

// reencoder decodes its input as decoders[name] does and encodes what it
// decoded.
func reencoder(name string) func([]byte) ([]byte, bool) {
	return func(b []byte) ([]byte, bool) {
		m := decoders[name]()
		ok := decode(b, m)
		return encode(m), ok
	}
}

// fuzzDecoders is the body of every target below. The DHT decoders face
// bytes from arbitrary peers: none may panic, and what one accepts must
// survive a round trip. The targets differ in their seed corpora only.
func fuzzDecoders(f *testing.F, seeds ...[]byte) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for name := range decoders {
			codectest.RoundTrip(t, data, reencoder(name))
		}
	})
}

func FuzzDecodeRequest(f *testing.F) {
	fuzzDecoders(f, encode(&request{kindPut, 42, []byte("value")}), encode(&getVia{reqID: 7, bypass: true}),
		encode(&request{kindDelete, 9, nil}), encode(&ack{kindPutAck, 3}), nil, []byte{kindPut})
}

func FuzzDecodeGetResp(f *testing.F) {
	fuzzDecoders(f, encode(&cachedReply{5, true, false, true, 1, 2, []byte("x")}), encode(&cachedReply{}),
		[]byte{kindCachedReply, 2, 0})
}

// FuzzDecodeHotspotMessage seeds the targets' body with every recorded
// path-caching frame.
func FuzzDecodeHotspotMessage(f *testing.F) {
	var seeds [][]byte
	for _, s := range frameSamples() {
		if frame := encode(s.msg); frame[0] >= kindGetVia {
			seeds = append(seeds, frame)
		}
	}
	fuzzDecoders(f, append(seeds, []byte{kindGetVia, 0x00, 0x00, 0x02}, []byte{kindCachedReply, 0x04, 0x01})...)
}

func FuzzDecodeReplicate(f *testing.F) {
	fuzzDecoders(f,
		encode(&store.Object{Key: id.New(1, 2), Version: 3, Origin: 4, Value: []byte("v")}),
		encode(&store.Object{Key: id.New(5, 6), Version: 1, Tombstone: true}),
		[]byte{kindReplicate})
}

func FuzzDecodeSyncKeys(f *testing.F) {
	sums := []store.Summary{
		store.Object{Key: id.New(2, 2), Version: 1, Origin: 3, Value: []byte("a")}.Summarize(),
		store.Object{Key: id.New(3, 3), Version: 7, Origin: 1, Tombstone: true}.Summarize(),
	}
	fuzzDecoders(f,
		encode(&syncKeys{id.New(1, 1), id.New(9, 9), 0xff00, sums}),
		encode(&syncKeys{}),
		encode(&syncPull{[]id.ID{id.New(4, 4)}}),
		encode(&sums[1]),
		encode(&handoffKey{kindHandoffWant, id.New(4, 4)}),
		[]byte{kindSyncKeys})
}

func FuzzDecodeSyncRoot(f *testing.F) {
	layer := syncBuckets{sid: 2}
	layer.buckets[0][0] = 0xaa
	fuzzDecoders(f,
		encode(&syncRoot{1, id.New(1, 1), id.New(2, 2), layer.buckets[0]}),
		encode(&layer),
		[]byte{kindSyncRoot, 0})
}
