// Package scribe implements application-level multicast in the style of
// Scribe (Castro, Druschel, Kermarrec, Rowstron, IEEE JSAC 2002), one of
// the overlay applications the paper names as a consumer of consistent
// routing: routing inconsistencies make group members lose multicast
// messages, so Scribe is a natural client of MSPastry.
//
// A group is identified by a key; the key's root node is the group's
// rendezvous point. Subscriptions are routed towards the root and build a
// reverse-path tree: every node a subscribe message passes through becomes
// a forwarder and records the previous hop as a child. Published messages
// are routed to the root and disseminated down the tree with direct
// messages. Tree state is soft: subscribers refresh periodically and
// forwarders expire silent children, so the tree heals around failures.
package scribe

import (
	"encoding/binary"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/pastry"
)

// Handler consumes multicast messages delivered to a local subscription.
type Handler func(group id.ID, payload []byte)

// The soft-state timers: refreshInterval is how often subscriptions are
// re-sent towards the group root, childTTL how long a child entry
// survives without a refresh.
const (
	refreshInterval = 30 * time.Second
	childTTL        = 75 * time.Second
)

// Scribe is the multicast engine on one overlay node. It implements
// pastry.App. All methods must be called from the node's Env context.
type Scribe struct {
	node *pastry.Node
	env  pastry.Env

	groups map[id.ID]*groupState

	nextNonce uint64
	seen      map[uint64]bool
	seenRing  []uint64
	seenNext  int

	// Delivered counts multicast payloads handed to local handlers.
	Delivered uint64
	// Forwarded counts multicast payloads relayed to children.
	Forwarded uint64
}

type groupState struct {
	subscribed bool
	handler    Handler
	children   map[id.ID]childEntry
	refresh    pastry.Timer
}

type childEntry struct {
	ref  pastry.NodeRef
	seen time.Duration
}

// New attaches a Scribe engine to node, registering it as the node's
// application layer. env must be the node's environment (for timers).
func New(node *pastry.Node, env pastry.Env) *Scribe {
	s := &Scribe{
		node:     node,
		env:      env,
		groups:   make(map[id.ID]*groupState),
		seen:     make(map[uint64]bool),
		seenRing: make([]uint64, 1024),
	}
	node.SetApp(s)
	return s
}

// Node returns the underlying overlay node.
func (s *Scribe) Node() *pastry.Node { return s.node }

// Subscribe joins a multicast group. The handler receives every message
// published to the group while the subscription holds.
func (s *Scribe) Subscribe(group id.ID, h Handler) {
	g := s.group(group)
	g.subscribed = true
	g.handler = h
	s.sendSubscribe(group)
	s.armRefresh(group, g)
}

// Unsubscribe cancels the local subscription. The node keeps forwarding
// for the group while it has live children; the forwarder state expires
// with them.
func (s *Scribe) Unsubscribe(group id.ID) {
	g, ok := s.groups[group]
	if !ok {
		return
	}
	g.subscribed = false
	g.handler = nil
	if g.refresh != nil {
		g.refresh.Cancel()
		g.refresh = nil
	}
	s.maybeDropGroup(group, g)
}

// Publish sends payload to every subscriber of group. The message is
// routed to the group's rendezvous root, which disseminates it down the
// tree.
func (s *Scribe) Publish(group id.ID, payload []byte) {
	s.node.Lookup(group, encodePublish(group, payload))
}

func (s *Scribe) group(group id.ID) *groupState {
	g, ok := s.groups[group]
	if !ok {
		g = &groupState{children: make(map[id.ID]childEntry)}
		s.groups[group] = g
	}
	return g
}

func (s *Scribe) sendSubscribe(group id.ID) {
	s.node.Lookup(group, encodeSubscribe(group, s.node.Ref()))
}

// armRefresh keeps the soft state alive: subscribers and forwarders with
// live children periodically re-subscribe towards the root (repairing the
// tree around failed interior nodes) and expire silent children.
func (s *Scribe) armRefresh(group id.ID, g *groupState) {
	if g.refresh != nil {
		g.refresh.Cancel()
	}
	g.refresh = s.env.Schedule(refreshInterval, func() {
		cur, ok := s.groups[group]
		if !ok {
			return
		}
		s.expireChildren(group, cur)
		cur, ok = s.groups[group]
		if !ok {
			return
		}
		if cur.subscribed || len(cur.children) > 0 {
			s.sendSubscribe(group)
			s.armRefresh(group, cur)
		}
	})
}

func (s *Scribe) expireChildren(group id.ID, g *groupState) {
	now := s.env.Now()
	for x, c := range g.children {
		if now-c.seen > childTTL {
			delete(g.children, x)
		}
	}
	s.maybeDropGroup(group, g)
}

func (s *Scribe) maybeDropGroup(group id.ID, g *groupState) {
	if !g.subscribed && len(g.children) == 0 {
		if g.refresh != nil {
			g.refresh.Cancel()
		}
		delete(s.groups, group)
	}
}

// Forward implements pastry.App: intercept subscribe messages to build the
// reverse-path tree. A node that is already part of the tree absorbs the
// subscription; otherwise it records the child and subscribes onwards
// itself, re-writing the child to itself.
func (s *Scribe) Forward(lk *pastry.Lookup) bool {
	group, child, ok := decodeSubscribe(lk.Payload)
	if !ok {
		return true // not a subscribe: forward normally
	}
	if child.ID == s.node.Ref().ID {
		// Our own outgoing (re-)subscription: pass it along unchanged.
		return true
	}
	g := s.group(group)
	wasForwarder := g.subscribed || len(g.children) > 0
	g.children[child.ID] = childEntry{ref: child, seen: s.env.Now()}
	if g.refresh == nil {
		s.armRefresh(group, g)
	}
	if wasForwarder {
		// Already on the tree: absorb; our own periodic refresh keeps the
		// path above alive.
		return false
	}
	// New forwarder: propagate a subscription with ourselves as child.
	lk.Payload = encodeSubscribe(group, s.node.Ref())
	return true
}

// Deliver implements pastry.App: the node is the group's rendezvous root
// (or the final destination of a subscribe).
func (s *Scribe) Deliver(lk *pastry.Lookup) {
	if group, child, ok := decodeSubscribe(lk.Payload); ok {
		g := s.group(group)
		if child.ID != s.node.Ref().ID {
			g.children[child.ID] = childEntry{ref: child, seen: s.env.Now()}
			if g.refresh == nil {
				s.armRefresh(group, g)
			}
		}
		return
	}
	if group, payload, ok := decodePublish(lk.Payload); ok {
		s.nextNonce++
		nonce := uint64(s.node.Ref().ID.Lo)<<32 ^ s.nextNonce
		s.disseminate(group, nonce, payload, pastry.NodeRef{})
		return
	}
}

// Direct implements pastry.App: multicast dissemination from our parent.
func (s *Scribe) Direct(from pastry.NodeRef, payload []byte) {
	group, nonce, body, ok := decodeMulticast(payload)
	if !ok {
		return
	}
	s.disseminate(group, nonce, body, from)
}

// markSeen records a multicast nonce, returning false if it was already
// seen (duplicate suppression keeps transient tree cycles from looping).
func (s *Scribe) markSeen(nonce uint64) bool {
	if s.seen[nonce] {
		return false
	}
	delete(s.seen, s.seenRing[s.seenNext])
	s.seenRing[s.seenNext] = nonce
	s.seenNext = (s.seenNext + 1) % len(s.seenRing)
	s.seen[nonce] = true
	return true
}

// disseminate delivers a multicast payload locally (if subscribed) and
// relays it to all children except the one it came from.
func (s *Scribe) disseminate(group id.ID, nonce uint64, payload []byte, from pastry.NodeRef) {
	if !s.markSeen(nonce) {
		return
	}
	g, ok := s.groups[group]
	if !ok {
		return
	}
	if g.subscribed && g.handler != nil {
		s.Delivered++
		g.handler(group, payload)
	}
	msg := encodeMulticast(group, nonce, payload)
	for _, c := range g.children {
		if c.ref.ID == from.ID {
			continue
		}
		s.Forwarded++
		s.node.SendDirect(c.ref, msg)
	}
}

// Wire formats: 1-byte kind, group id, then kind-specific fields.
const (
	kindSubscribe byte = iota + 1
	kindPublish
	kindMulticast
)

func encodeSubscribe(group id.ID, child pastry.NodeRef) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, kindSubscribe)
	buf = append(buf, group.Bytes()...)
	buf = append(buf, child.ID.Bytes()...)
	buf = binary.AppendUvarint(buf, uint64(len(child.Addr)))
	return append(buf, child.Addr...)
}

func decodeSubscribe(buf []byte) (group id.ID, child pastry.NodeRef, ok bool) {
	if len(buf) < 1+16+16+1 || buf[0] != kindSubscribe {
		return id.ID{}, pastry.NodeRef{}, false
	}
	group = id.FromBytes(buf[1:17])
	child.ID = id.FromBytes(buf[17:33])
	alen, n := binary.Uvarint(buf[33:])
	if n <= 0 || int(alen) != len(buf)-33-n {
		return id.ID{}, pastry.NodeRef{}, false
	}
	child.Addr = string(buf[33+n:])
	return group, child, true
}

func encodePublish(group id.ID, payload []byte) []byte {
	buf := make([]byte, 0, 32+len(payload))
	buf = append(buf, kindPublish)
	buf = append(buf, group.Bytes()...)
	return append(buf, payload...)
}

func decodePublish(buf []byte) (group id.ID, payload []byte, ok bool) {
	if len(buf) < 17 || buf[0] != kindPublish {
		return id.ID{}, nil, false
	}
	return id.FromBytes(buf[1:17]), buf[17:], true
}

func encodeMulticast(group id.ID, nonce uint64, payload []byte) []byte {
	buf := make([]byte, 0, 40+len(payload))
	buf = append(buf, kindMulticast)
	buf = append(buf, group.Bytes()...)
	buf = binary.AppendUvarint(buf, nonce)
	return append(buf, payload...)
}

func decodeMulticast(buf []byte) (group id.ID, nonce uint64, payload []byte, ok bool) {
	if len(buf) < 18 || buf[0] != kindMulticast {
		return id.ID{}, 0, nil, false
	}
	v, n := binary.Uvarint(buf[17:])
	if n <= 0 {
		return id.ID{}, 0, nil, false
	}
	return id.FromBytes(buf[1:17]), v, buf[17+n:], true
}
