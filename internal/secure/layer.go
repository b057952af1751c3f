package secure

import (
	"reflect"
	"sort"
	"time"

	"mspastry/internal/codec"
	"mspastry/internal/id"
	"mspastry/internal/pastry"
)

// The layer: secure routing as an application over an MSPastry node, which
// it drives only through the node's public commands.
//
// MSPastry's crash-fault machinery is blind to malicious peers: a node
// that acknowledges a lookup hop and then drops the message, or routes it
// into a ring of colluders, looks healthy to per-hop acks and liveness
// probes. The defence, after Castro et al. and "Our Brothers' Keepers":
//
//  1. A secure lookup asks its root for a report of the root's leaf set.
//  2. The origin runs the routing failure test (Check) on each report.
//  3. A failed test, or no report within replyTimeout, re-issues the
//     lookup over fanout neighbour-diverse first hops. The reports vote:
//     the first passing report closes the lookup, and a failed reporter
//     whose root claim is strictly farther from the key than the accepted
//     root is distrusted (pastry.Node.Distrust).

// Payload kinds: the first byte of a secure lookup's payload and of the
// AppDirect that carries its root's report. They sit above the dht's
// kinds (1..16 and, for reads and path caching, 0x41..0x44), so a layer
// can wrap the dht.
const (
	KindRequest byte = 0x51
	KindReport  byte = 0x52
)

const (
	// fanout is how many diverse first hops a redundant round uses;
	// maxRounds bounds the rounds per lookup.
	fanout    = 4
	maxRounds = 3
	// replyTimeout is how long the origin waits for a plausible report
	// before it issues a redundant round (or, after maxRounds, gives up).
	replyTimeout = 5 * time.Second
	// maxLeaves bounds a decoded report's leaf count: a leaf set holds at
	// most a few dozen nodes, and a report arrives from outside.
	maxLeaves = 256
)

// request is every secure lookup's payload.
var request = []byte{KindRequest}

// IsRequest reports whether a lookup's payload asks its root for a report.
func IsRequest(payload []byte) bool { return len(payload) == 1 && payload[0] == KindRequest }

// walkReport describes a report on the wire: the lookup's sequence
// number, the key and the leaf identifiers. Root is the sender.
func walkReport(c *codec.Coder, r *Report) {
	c.Tag(KindReport)
	c.Uvarint(&r.Seq)
	c.ID(&r.Key)
	leaves := codec.Slice(c, &r.Leaves, maxLeaves)
	for i := range leaves {
		c.ID(&leaves[i])
	}
}

// EncodeReport serialises a report into an exactly sized payload.
func EncodeReport(r Report) []byte {
	var c codec.Coder
	walkReport(&c, &r)
	c = codec.Appender(make([]byte, 0, c.Size()))
	walkReport(&c, &r)
	return c.Bytes()
}

// decodeReport parses a report payload: any bytes parse or report false.
func decodeReport(payload []byte) (r Report, ok bool) {
	c := codec.Reader(payload)
	walkReport(&c, &r)
	return r, c.Finish() == nil
}

// Counters are the layer's tallies. Their metric names keep the node's
// prefix, as the defence runs on behalf of the node it is mounted on, and
// dashboards read them beside the node's own counters.
type Counters struct {
	Reports         uint64 `metric:"mspastry_node_secure_reports" help:"Root completion reports evaluated by the routing failure test."`
	TestPass        uint64 `metric:"mspastry_node_secure_test_pass" help:"Root reports that passed the routing failure test."`
	TestFail        uint64 `metric:"mspastry_node_secure_test_fail" help:"Root reports that failed the routing failure test."`
	RedundantRounds uint64 `metric:"mspastry_node_secure_redundant_rounds" help:"Redundant diverse-path rounds issued for suspect lookups."`
	RedundantSends  uint64 `metric:"mspastry_node_secure_redundant_sends" help:"Lookup copies sent by redundant diverse-path rounds."`
	Distrusted      uint64 `metric:"mspastry_node_secure_distrusted" help:"Peers distrusted after a failed test lost the report vote."`
	GiveUps         uint64 `metric:"mspastry_node_secure_giveups" help:"Secure lookups that exhausted every redundant round without an accepted report."`
}

// Add accumulates o into c, field by field: how a run totals every layer it
// hosted.
func (c *Counters) Add(o Counters) {
	dst, src := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := range dst.NumField() {
		dst.Field(i).SetUint(dst.Field(i).Uint() + src.Field(i).Uint())
	}
}

// Layer runs secure lookups on one node. Like the node, it must be called
// from the node's serialised context.
type Layer struct {
	node     *pastry.Node
	env      pastry.Env
	inner    pastry.App
	sessions map[uint64]*session
	density  Estimator
	counters Counters
}

// session is one secure lookup at its origin, from issue until a report
// is accepted or every round is spent.
type session struct {
	pastry.Alarm               // the reply timeout, re-armed by every round
	lk           pastry.Lookup // what a redundant round sends copies of
	rounds       int
	// used holds the first hops rounds have taken; reported the
	// responders already heard from (copies can reach one root twice).
	used, reported map[id.ID]bool
	// suspects are reporters whose reports failed the test; they are
	// distrusted if a strictly closer root is accepted later.
	suspects []pastry.NodeRef
}

// New mounts a layer on node, over inner (nil for none): it becomes the
// node's application and hands inner every lookup and direct message that
// is not its own. Its timers run on env, the node's Env.
func New(node *pastry.Node, env pastry.Env, inner pastry.App) *Layer {
	if inner == nil {
		inner = nopApp{}
	}
	l := &Layer{node: node, env: env, inner: inner, sessions: make(map[uint64]*session)}
	node.SetApp(l)
	return l
}

type nopApp struct{}

func (nopApp) Deliver(*pastry.Lookup)        {}
func (nopApp) Forward(*pastry.Lookup) bool   { return true }
func (nopApp) Direct(pastry.NodeRef, []byte) {}

// Stats returns the layer's counters; a nil layer's are zero.
func (l *Layer) Stats() Counters {
	if l == nil {
		return Counters{}
	}
	return l.counters
}

// Lookup routes a secure lookup for key and returns its sequence number,
// as pastry.Node.Lookup does. The simulator issues every lookup so when
// secure routing is on.
func (l *Layer) Lookup(key id.ID) (uint64, bool) {
	seq, ok := l.node.Lookup(key, request)
	if ok {
		s := &session{lk: pastry.Lookup{Key: key, Seq: seq, Issued: l.node.Now(), Payload: request},
			used: make(map[id.ID]bool), reported: make(map[id.ID]bool)}
		l.sessions[seq] = s
		s.Bind(func() { l.timeout(s) })
		s.Arm(l.env, replyTimeout)
	}
	return seq, ok
}

// LookupRedundant is Lookup with a diverse-path round sent as soon as the
// lookup is routed, not only after a failed test or a timeout: the slookup
// command of mspastry-node issues it.
func (l *Layer) LookupRedundant(key id.ID) (uint64, bool) {
	seq, ok := l.Lookup(key)
	if ok {
		// Time the session out at once. The node routes the lookup in a
		// zero-delay timer armed before this one: the round leaves after it.
		s := l.sessions[seq]
		s.Stop()
		s.Arm(l.env, 0)
	}
	return seq, ok
}

// Deliver implements pastry.App: the root of a secure lookup reports its
// leaf set to the origin.
func (l *Layer) Deliver(lk *pastry.Lookup) {
	switch {
	case !IsRequest(lk.Payload):
		l.inner.Deliver(lk)
	case lk.Origin.IsZero() || lk.Origin.ID == l.node.Ref().ID:
		// The origin is its own root: it trusts its own leaf set.
		if s := l.sessions[lk.Seq]; s != nil {
			l.close(s)
		}
	default:
		leaves := ids(l.node.Leaf().Members())
		l.node.SendDirect(lk.Origin, EncodeReport(Report{Seq: lk.Seq, Key: lk.Key, Leaves: leaves}))
	}
}

// Forward implements pastry.App.
func (l *Layer) Forward(lk *pastry.Lookup) bool { return IsRequest(lk.Payload) || l.inner.Forward(lk) }

// Direct implements pastry.App: a report goes to its session.
func (l *Layer) Direct(from pastry.NodeRef, payload []byte) {
	if len(payload) == 0 || payload[0] != KindReport {
		l.inner.Direct(from, payload)
	} else if r, ok := decodeReport(payload); ok {
		r.Root = from.ID
		l.onReport(from, r)
	}
}

// onReport runs the failure test on one report.
func (l *Layer) onReport(from pastry.NodeRef, r Report) {
	s := l.sessions[r.Seq]
	if s == nil || s.lk.Key != r.Key || s.reported[from.ID] {
		// A closed session, a stale sequence number, a forgery for a
		// lookup this node never issued, or a repeat.
		return
	}
	s.reported[from.ID] = true
	l.counters.Reports++
	members := l.node.Leaf().Members()
	// A plausible root's leaf set is about as full as our own; half
	// tolerates transient repair without admitting colluder-only sets.
	minLeaves := (len(members) + 1) / 2
	if Check(r, l.localDensity(members), minLeaves).Suspicious() {
		l.counters.TestFail++
		s.suspects = append(s.suspects, from)
		// React to the first suspicion at once; later ones wait for the
		// round's timeout, so a burst of forged reports cannot burn every
		// round at once.
		if s.rounds == 0 {
			l.round(s)
		}
		return
	}
	l.counters.TestPass++
	if g, ok := MeanGap(append(r.Leaves, r.Root)); ok {
		l.density.Observe(g)
	}
	// Settle the vote: a suspect whose root claim lost to a strictly
	// closer accepted root lied (identifiers are certified, so it could not
	// be the root while a closer live node existed). Requiring both a
	// failed test and a lost vote keeps one statistical misfire from
	// punishing an honest node.
	for _, p := range s.suspects {
		if p.ID != from.ID && id.CloserToKey(r.Key, from.ID, p.ID) && l.node.Distrust(p) {
			l.counters.Distrusted++
		}
	}
	l.close(s)
}

func (l *Layer) close(s *session) {
	s.Stop()
	delete(l.sessions, s.lk.Seq)
}

// timeout runs when no acceptable report came within replyTimeout: issue
// another round, or give up after maxRounds (copies in flight can still
// deliver; the origin stops spending redundancy on the lookup).
func (l *Layer) timeout(s *session) {
	switch {
	case !l.node.Alive():
	case s.rounds < maxRounds:
		l.round(s)
	default:
		l.counters.GiveUps++
		l.close(s)
	}
}

// round re-issues the lookup over up to fanout diverse first hops, then
// re-arms the timeout, also when no fresh hop was left: copies in flight
// may still report, and the timeout owns giving up.
func (l *Layer) round(s *session) {
	s.rounds++
	l.counters.RedundantRounds++
	for _, h := range l.diverseFirstHops(s.lk.Key, s.used) {
		s.used[h.ID] = true
		l.counters.RedundantSends++
		l.node.SendCopy(s.lk, h)
	}
	s.Stop()
	s.Arm(l.env, replyTimeout)
}

// diverseFirstHops picks up to fanout first hops not yet used for the
// lookup, closest to the key first, with at most one per top-level digit
// (neighbour diversity: one captured region of the id space cannot take
// the whole round) and the rest closest-first when diversity runs short.
func (l *Layer) diverseFirstHops(key id.ID, used map[id.ID]bool) []pastry.NodeRef {
	cands := l.node.FirstHops(used)
	sort.Slice(cands, func(i, j int) bool { return id.CloserToKey(key, cands[i].ID, cands[j].ID) })
	b := l.node.Table().B()
	picks := make([]pastry.NodeRef, 0, fanout)
	picked := make(map[id.ID]bool)
	usedDigit := make(map[int]bool)
	for _, c := range cands {
		if d := c.ID.Digit(0, b); len(picks) < fanout && !usedDigit[d] {
			usedDigit[d], picked[c.ID] = true, true
			picks = append(picks, c)
		}
	}
	for _, c := range cands {
		if len(picks) < fanout && !picked[c.ID] {
			picked[c.ID] = true
			picks = append(picks, c)
		}
	}
	return picks
}

// localDensity is the origin's id-space density estimate: the gap of its
// own leaf set (members) blended with the accepted reports' history.
func (l *Layer) localDensity(members []pastry.NodeRef) float64 {
	gap, _ := MeanGap(append(ids(members), l.node.Ref().ID))
	return l.density.Blend(gap)
}

func ids(refs []pastry.NodeRef) []id.ID {
	out := make([]id.ID, len(refs))
	for i, r := range refs {
		out[i] = r.ID
	}
	return out
}
