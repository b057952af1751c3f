package pastry

import (
	"time"
)

// distSession measures the round-trip delay to one target by sending a
// sequence of probes spaced by a fixed interval and taking the median of
// the returned values (paper §4.2). The nearest-neighbour phase uses a
// single sample to reduce join latency.
type distSession struct {
	target  NodeRef
	want    int
	samples []time.Duration
	sentAt  map[uint64]time.Duration
	// sample sends the probes after the first, one timer each; deadline
	// ends the session.
	sample, deadline alarm
	done             []func(rtt time.Duration, ok bool)
}

// measureDistance starts (or joins) a distance measurement to target with
// the given sample count; done is invoked exactly once with the median RTT
// or ok=false when no probe was answered.
func (n *Node) measureDistance(target NodeRef, samples int, done func(rtt time.Duration, ok bool)) {
	if target.ID == n.self.ID {
		done(0, false)
		return
	}
	if ds, ok := n.distSessions[target.ID]; ok {
		ds.done = append(ds.done, done)
		return
	}
	ds := &distSession{
		target: target,
		want:   samples,
		sentAt: make(map[uint64]time.Duration, samples),
		done:   []func(time.Duration, bool){done},
	}
	n.distSessions[target.ID] = ds
	n.sendDistProbe(ds)
	for i := 1; i < samples; i++ {
		n.arm(timerDistProbe, time.Duration(i)*n.cfg.DistProbeSpacing, &ds.sample, ds)
	}
	deadline := time.Duration(samples)*n.cfg.DistProbeSpacing + 2*n.cfg.To
	n.arm(timerDistDeadline, deadline, &ds.deadline, ds)
}

// sendDistProbe sends one of the session's probes; a session that is over
// sends none.
func (n *Node) sendDistProbe(ds *distSession) {
	if n.distSessions[ds.target.ID] != ds {
		return
	}
	n.nextDistSeq++
	seq := n.nextDistSeq
	ds.sentAt[seq] = n.env.Now()
	n.distSeqs[seq] = ds
	n.send(ds.target, &DistProbe{From: n.self, Seq: seq})
}

// handleDistProbeReply folds a probe echo into its session; the session
// completes as soon as every sample arrived.
func (n *Node) handleDistProbeReply(msg *DistProbeReply) {
	ds, ok := n.distSeqs[msg.Seq]
	if !ok {
		return
	}
	delete(n.distSeqs, msg.Seq)
	sent, ok := ds.sentAt[msg.Seq]
	if !ok {
		return
	}
	delete(ds.sentAt, msg.Seq)
	ds.samples = append(ds.samples, n.env.Now()-sent)
	if len(ds.samples) >= ds.want {
		n.finishDistSession(ds)
	}
}

// finishDistSession concludes a measurement, reporting the median of the
// collected samples and sending the symmetric distance report so the
// target can reuse the measurement.
func (n *Node) finishDistSession(ds *distSession) {
	if n.distSessions[ds.target.ID] != ds {
		return
	}
	delete(n.distSessions, ds.target.ID)
	stop(ds.deadline.timer)
	for seq := range ds.sentAt {
		delete(n.distSeqs, seq)
	}
	if len(ds.samples) == 0 {
		for _, f := range ds.done {
			f(0, false)
		}
		return
	}
	rtt := medianDuration(ds.samples)
	n.send(ds.target, &DistReport{From: n.self, RTT: rtt})
	for _, f := range ds.done {
		f(rtt, true)
	}
}

// handleDistProbe echoes a distance probe.
func (n *Node) handleDistProbe(p *DistProbe) {
	n.send(p.From, &DistProbeReply{From: n.self, Seq: p.Seq})
}

// handleDistReport applies a symmetric distance report: the peer measured
// the round-trip delay between us, so we can consider it for our routing
// table without probing (round-trip delay is symmetric).
func (n *Node) handleDistReport(msg *DistReport) {
	n.rt.AddWithRTT(msg.From, msg.RTT)
}

// handleRowRequest answers periodic maintenance with the requested row.
func (n *Node) handleRowRequest(req *RowRequest) {
	n.send(req.From, &RowReply{From: n.self, Row: req.Row, Entries: n.rt.Row(req.Row)})
}

// handleRowReply considers the returned row's entries and its sender.
func (n *Node) handleRowReply(rep *RowReply) {
	n.handleRowEntries(append(rep.Entries, rep.From), false)
}

// handleRowAnnounce takes a join announcement: it always measures the
// newcomer itself; the other row entries only fill gaps (periodic
// maintenance handles slot improvement).
func (n *Node) handleRowAnnounce(a *RowAnnounce) {
	n.handleRowEntries([]NodeRef{a.From}, false)
	n.handleRowEntries(a.Entries, true)
}

// handleRowEntries processes routing-table rows received through gossip
// (join announcements, periodic maintenance replies, passive repair): probe
// the distance to entries not in the table and keep them if closer. The
// distance probe also establishes direct contact, satisfying the rule that
// repair never inserts a node without hearing from it. With fillOnly set,
// only candidates for empty or unmeasured slots are probed.
func (n *Node) handleRowEntries(entries []NodeRef, fillOnly bool) {
	now := n.env.Now()
	for _, e := range entries {
		e := e
		if e.ID == n.self.ID || e.IsZero() {
			continue
		}
		if _, bad := n.failed[e.ID]; bad {
			continue
		}
		if n.rt.Contains(e.ID) {
			continue
		}
		if !n.slotWorthProbing(e, fillOnly) {
			continue
		}
		// Skip candidates measured recently: a candidate that did not
		// make it into the table last round is still farther this round,
		// so re-probing it every maintenance period is pure overhead.
		s := n.suppressOf(n.peers.Obtain(e.ID, e.Addr, now))
		if s.distProbed != 0 && now-s.distProbed < n.cfg.RTMaintenance {
			continue
		}
		s.distProbed = now
		n.measureDistance(e, distProbeCount, func(rtt time.Duration, ok bool) {
			if ok {
				n.rt.AddWithRTT(e, rtt)
			}
		})
	}
}

// slotWorthProbing reports whether measuring cand could improve the table.
// In fillOnly mode a candidate only qualifies when its slot is empty or
// held by an unmeasured occupant; otherwise any slot not already held by
// cand qualifies, since proximity neighbour selection replaces occupants
// with closer candidates.
func (n *Node) slotWorthProbing(cand NodeRef, fillOnly bool) bool {
	row, col, ok := n.rt.Slot(cand.ID)
	if !ok {
		return false
	}
	occ, used := n.rt.Get(row, col)
	if !used {
		return true
	}
	if occ.ID == cand.ID {
		return false
	}
	if !fillOnly {
		return true
	}
	_, measured := n.rt.RTT(occ.ID)
	return !measured
}

// periodicMaintenance implements the 20-minute routing-table maintenance:
// for each row, ask a random entry for its corresponding row, then probe
// and keep closer entries (constrained gossiping, paper §2).
func (n *Node) periodicMaintenance() {
	rng := n.env.Rand()
	for r := 0; r < n.rt.NumRows(); r++ {
		row := n.rt.Row(r)
		if len(row) == 0 {
			continue
		}
		target := row[rng.Intn(len(row))]
		n.send(target, &RowRequest{From: n.self, Row: r})
	}
}
