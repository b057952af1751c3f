package secure

import (
	"mspastry/internal/id"
	"mspastry/internal/pastry"
)

// What the layer's tests, in package secure_test to build overlays with
// netmodel (which imports this package), read of its insides.
const (
	Fanout    = fanout
	MaxRounds = maxRounds
)

// Open reports whether the lookup seq still has a session.
func (l *Layer) Open(seq uint64) bool { return l.sessions[seq] != nil }

func (l *Layer) DiverseFirstHops(key id.ID, used map[id.ID]bool) []pastry.NodeRef {
	return l.diverseFirstHops(key, used)
}
