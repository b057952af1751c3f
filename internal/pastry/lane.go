package pastry

import "mspastry/internal/overload"

// LaneOf classifies a message into an overload-protection priority lane.
// The classification lives here (not in package overload) because it
// needs the concrete message types; both transports use it to route
// inbound work through their bounded lane queues.
//
// Liveness traffic — per-hop acks, heartbeats, leaf-set and
// routing-table probes and their replies — outranks everything: shedding
// it turns overload into false positives, and the resulting repair storm
// is exactly the collapse the shedding exists to prevent. Routing
// control (joins, repair, rows, nearest-neighbour and distance
// exchanges) comes next, then routed lookups, and bulk application
// transfer (replication values, anti-entropy payloads) is shed first.
func LaneOf(m Message) overload.Lane {
	switch msg := m.(type) {
	case *Ack, *Heartbeat, *LSProbe, *LSProbeReply, *RTProbe, *RTProbeReply:
		return overload.LaneLiveness
	case *Envelope:
		if msg.Lookup != nil {
			return overload.LaneLookup
		}
		return overload.LaneControl
	case *AppDirect:
		return overload.LaneBulk
	default:
		// Join traffic, repair, rows, distance and nearest-neighbour
		// exchanges: routing control.
		return overload.LaneControl
	}
}
