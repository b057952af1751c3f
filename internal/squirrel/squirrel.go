// Package squirrel implements a decentralized peer-to-peer web cache in
// the style of Squirrel (Iyer, Rowstron, Druschel, PODC 2002), the
// application the paper uses to validate its simulator (Figure 8).
//
// Each participating machine runs a Squirrel proxy on an MSPastry node.
// Web object keys are the SHA-1 of the object's URL; the key's root node
// is the object's "home node" and caches it (the home-store model). A
// request is routed through the overlay to the home node, which answers
// from its cache or fetches from the origin server and then answers; the
// response travels back in a single direct message.
package squirrel

import (
	"fmt"

	"mspastry/internal/codec"
	"mspastry/internal/hotspot"
	"mspastry/internal/id"
	"mspastry/internal/pastry"
)

// Origin abstracts the origin web server: it produces the body for a URL.
// In the simulator this is synthetic; in a deployment it would issue a real
// HTTP request.
type Origin interface {
	Fetch(url string) ([]byte, error)
}

// OriginFunc adapts a function to the Origin interface.
type OriginFunc func(url string) ([]byte, error)

// Fetch implements Origin.
func (f OriginFunc) Fetch(url string) ([]byte, error) { return f(url) }

// Outcome classifies how a request was satisfied.
type Outcome int

const (
	// HitLocal means the local proxy cache had a fresh copy.
	HitLocal Outcome = iota + 1
	// HitRemote means the home node had the object cached.
	HitRemote
	// MissOrigin means the home node fetched the object from the origin.
	MissOrigin
	// Failed means the request errored or timed out.
	Failed
)

func (o Outcome) String() string {
	switch o {
	case HitLocal:
		return "hit-local"
	case HitRemote:
		return "hit-remote"
	case MissOrigin:
		return "miss-origin"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Stats counts cache activity on one proxy.
type Stats struct {
	Requests    uint64
	LocalHits   uint64
	RemoteHits  uint64
	OriginMiss  uint64
	Failures    uint64
	HomeServes  uint64 // requests served by this node as a home node
	HomeFetches uint64 // origin fetches performed as a home node
}

// Proxy is one Squirrel instance on an overlay node. It implements
// pastry.App. All methods must be called from the node's Env context.
type Proxy struct {
	node   *pastry.Node
	origin Origin

	// home cache: objects this node stores as home node.
	home *hotspot.Cache
	// local cache: objects this node requested recently (browser cache).
	local *hotspot.Cache

	nextReq uint64
	pending map[uint64]pendingReq

	stats Stats
}

// A modest sizing of the proxy caches, in entries.
const (
	homeCacheEntries  = 4096
	localCacheEntries = 512
)

// New attaches a Squirrel proxy to node. It registers itself as the node's
// application layer.
func New(node *pastry.Node, origin Origin) *Proxy {
	p := &Proxy{
		node:    node,
		origin:  origin,
		home:    newBodyCache(homeCacheEntries),
		local:   newBodyCache(localCacheEntries),
		pending: make(map[uint64]pendingReq),
	}
	node.SetApp(p)
	return p
}

// Stats returns a snapshot of the proxy's counters.
func (p *Proxy) Stats() Stats { return p.stats }

// Node returns the underlying overlay node.
func (p *Proxy) Node() *pastry.Node { return p.node }

// Get requests a URL. done is invoked exactly once with the body and the
// outcome (from the node's Env context). Requests to a crashed node fail
// immediately.
func (p *Proxy) Get(url string, done func(body []byte, outcome Outcome)) {
	p.stats.Requests++
	key := id.FromKey(url)
	if e, ok := p.local.Get(key); ok {
		p.stats.LocalHits++
		done(e.Value, HitLocal)
		return
	}
	p.nextReq++
	reqID := p.nextReq
	p.pending[reqID] = pendingReq{key: key, done: done}
	if _, ok := p.node.Lookup(key, encode(&request{reqID, []byte(url)})); !ok {
		delete(p.pending, reqID)
		p.stats.Failures++
		done(nil, Failed)
	}
}

// Deliver implements pastry.App: the node is the home node for the
// requested object.
func (p *Proxy) Deliver(lk *pastry.Lookup) {
	var req request
	if !decode(lk.Payload, &req) {
		return // not a squirrel request (foreign traffic on a shared ring)
	}
	p.stats.HomeServes++
	e, hit := p.home.Get(lk.Key)
	body := e.Value
	if !hit {
		fetched, err := p.origin.Fetch(string(req.url))
		if err != nil {
			p.respond(lk.Origin, req.reqID, nil, Failed)
			return
		}
		p.stats.HomeFetches++
		body = fetched
		p.home.Put(hotspot.Entry{Key: lk.Key, Value: body})
	}
	outcome := HitRemote
	if !hit {
		outcome = MissOrigin
	}
	if lk.Origin.ID == p.node.Ref().ID {
		// The requester is its own home node: complete locally.
		p.complete(req.reqID, body, outcome)
		return
	}
	p.respond(lk.Origin, req.reqID, body, outcome)
}

// Forward implements pastry.App: Squirrel does not intercept routing.
func (p *Proxy) Forward(*pastry.Lookup) bool { return true }

// Direct implements pastry.App: a response from a home node.
func (p *Proxy) Direct(from pastry.NodeRef, payload []byte) {
	var resp response
	if decode(payload, &resp) {
		p.complete(resp.reqID, resp.body, Outcome(resp.outcome))
	}
}

// pendingReq tracks one in-flight request.
type pendingReq struct {
	key  id.ID
	done func([]byte, Outcome)
}

func (p *Proxy) complete(reqID uint64, body []byte, outcome Outcome) {
	req, ok := p.pending[reqID]
	if !ok {
		return // duplicate or expired response
	}
	delete(p.pending, reqID)
	switch outcome {
	case HitRemote:
		p.stats.RemoteHits++
	case MissOrigin:
		p.stats.OriginMiss++
	case Failed:
		p.stats.Failures++
	}
	if outcome != Failed && body != nil {
		p.local.Put(hotspot.Entry{Key: req.key, Value: body})
	}
	req.done(body, outcome)
}

func (p *Proxy) respond(to pastry.NodeRef, reqID uint64, body []byte, outcome Outcome) {
	p.node.SendDirect(to, encode(&response{reqID, byte(outcome), body}))
}

// Wire formats for the squirrel payloads: a 1-byte kind, then fields.
const (
	kindRequest byte = iota + 1
	kindResponse
)

type (
	// request asks a URL's home node for the object.
	request struct {
		reqID uint64
		url   []byte
	}
	// response carries the object back with the Outcome that produced it.
	response struct {
		reqID   uint64
		outcome byte
		body    []byte
	}
)

// walk is the one wire description of both messages: the kind, then the
// fields in wire order. It panics on unknown message types (a programming
// error).
func walk(c *codec.Coder, m any) {
	switch m := m.(type) {
	case *request:
		c.Tag(kindRequest)
		c.Uvarint(&m.reqID)
		c.Rest(&m.url)
	case *response:
		c.Tag(kindResponse)
		c.Byte(&m.outcome)
		c.Uvarint(&m.reqID)
		c.Rest(&m.body)
	default: // not naming the type: formatting m would move every message to the heap
		panic("squirrel: message type with no wire format")
	}
}

// encode serialises a message into a fresh, exactly sized slice.
func encode(m any) []byte {
	var c codec.Coder
	walk(&c, m)
	c = codec.Appender(make([]byte, 0, c.Size()))
	walk(&c, m)
	return c.Bytes()
}

// decode fills m, a pointer to the message the caller expects, from buf.
// It is total: arbitrary bytes either parse or report false, never panic.
// Byte-slice fields alias buf.
func decode(buf []byte, m any) bool {
	c := codec.Reader(buf)
	walk(&c, m)
	return c.Finish() == nil
}

// newBodyCache builds a proxy body cache on the shared hotspot cache:
// segmented-LRU eviction, no frequency admission (the Squirrel model is
// a plain bounded cache).
func newBodyCache(max int) *hotspot.Cache {
	return hotspot.New(hotspot.Config{Capacity: max})
}
