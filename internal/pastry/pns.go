package pastry

import (
	"time"
)

// distSession measures the round-trip delay to one target by sending a
// sequence of probes spaced by a fixed interval and taking the median of
// the returned values (paper §4.2). The nearest-neighbour phase uses a
// single sample to reduce join latency. It is a node-local record, taken
// from Node.freeDists by measureDistance and parked there by
// finishDistSession, on the terms of hop and probe records (takeHop).
type distSession struct {
	target NodeRef
	want   int
	// Probe i went out as seqs[i] at sentAt[i], for i < sent; samples
	// holds the got round trips answered so far.
	sent, got int
	seqs      [distProbeCount]uint64
	sentAt    [distProbeCount]time.Duration
	samples   [distProbeCount]time.Duration
	// sample[i] sends probe i+1; deadline ends the session. Each alarm is
	// bound once and kept across reuse.
	sample   [distProbeCount - 1]Alarm
	deadline Alarm
	// waiters are the completions, in the order they were asked for; the
	// slice's array is kept across reuse, zeroed.
	waiters []distWaiter
}

// distWaiter is one completion of a measurement of ref: with nn nil, ref
// is offered to the routing table at the measured distance; otherwise the
// distance is a sample of the nearest-neighbour search nn.
type distWaiter struct {
	ref NodeRef
	nn  *nnState
}

// measureDistance starts (or joins) a measurement of the distance to
// target with 1 to distProbeCount samples. The completion runs exactly
// once, with the median RTT or with none when no probe was answered: for
// nn nil it offers target to the routing table, otherwise it is nn's
// sample (nnSample).
func (n *Node) measureDistance(target NodeRef, samples int, nn *nnState) {
	w := distWaiter{ref: target, nn: nn}
	if target.ID == n.self.ID {
		n.complete(w, 0, false)
		return
	}
	if ds, ok := n.distSessions[target.ID]; ok {
		ds.waiters = append(ds.waiters, w)
		return
	}
	ds := n.takeDist()
	ds.target, ds.want = target, samples
	ds.waiters = append(ds.waiters, w)
	n.distSessions[target.ID] = ds
	n.sendDistProbe(ds)
	for i := 1; i < samples; i++ {
		n.arm(timerDistProbe, time.Duration(i)*n.cfg.DistProbeSpacing, &ds.sample[i-1], ds)
	}
	deadline := time.Duration(samples)*n.cfg.DistProbeSpacing + 2*n.cfg.To
	n.arm(timerDistDeadline, deadline, &ds.deadline, ds)
}

// takeDist returns a parked session record, or a new one when none is.
func (n *Node) takeDist() *distSession {
	if last := len(n.freeDists) - 1; last >= 0 {
		ds := n.freeDists[last]
		n.freeDists = n.freeDists[:last]
		return ds
	}
	return new(distSession)
}

// maxFreeDists bounds the session free list, more tightly than maxFree
// does the other two. The burst is a joiner's: its search rounds measure
// up to 24 candidates at once (34 sessions at most on one node of a
// 300-node churning overlay), and once it is active it has a few at a time
// — a row announcement's candidates, a maintenance round's. Eight records
// keep most of the saving: a 32-record list saved `sim-churn` a further
// 1.4% of its allocations and read 8 MiB more peak heap there.
const maxFreeDists = 8

// parkDist empties ds but for its alarms and its waiters' array and puts
// it on the free list (up to maxFreeDists). The caller has taken ds out of
// distSessions and distSeqs and cancelled its timers.
func (n *Node) parkDist(ds *distSession) {
	clear(ds.waiters)
	*ds = distSession{sample: ds.sample, deadline: ds.deadline, waiters: ds.waiters[:0]}
	if len(n.freeDists) < maxFreeDists {
		n.freeDists = append(n.freeDists, ds)
	}
}

// sendDistProbe sends the session's next probe, built with the echo its
// target will owe inline (distExchange); the last one also holds the
// report this node will owe the target once the echoes are in
// (distReportExchange). The session's timers are cancelled when it ends,
// so one that is over sends none.
func (n *Node) sendDistProbe(ds *distSession) {
	n.nextDistSeq++
	seq := n.nextDistSeq
	var p *DistProbe
	if ds.sent == ds.want-1 {
		p = newLastDistProbe()
	} else {
		p = newDistProbe()
	}
	p.From, p.Seq = n.self, seq
	ds.seqs[ds.sent], ds.sentAt[ds.sent] = seq, n.env.Now()
	ds.sent++
	n.distSeqs[seq] = ds
	n.send(ds.target, p)
}

// handleDistProbeReply folds a probe echo into its session; the session
// completes as soon as every sample arrived. A seq is in distSeqs until its
// echo or the end of its session, so a duplicate or late echo finds none.
func (n *Node) handleDistProbeReply(msg *DistProbeReply) {
	ds, ok := n.distSeqs[msg.Seq]
	if !ok {
		return
	}
	delete(n.distSeqs, msg.Seq)
	for i, seq := range ds.seqs[:ds.sent] {
		if seq == msg.Seq {
			ds.samples[ds.got] = n.env.Now() - ds.sentAt[i]
			ds.got++
			break
		}
	}
	if ds.got >= ds.want {
		n.finishDistSession(ds, takeSpare(&msg.spareReport))
	}
}

// finishDistSession concludes a measurement, reporting the median of the
// collected samples and sending the symmetric distance report so the
// target can reuse the measurement. The report goes out in report — the
// completing echo's spare — or, at the deadline (report nil), in a new
// one. The record is parked before any completion runs, as a hop's is
// before its lookup is handed on: the waiters are copied out first (to
// the stack, short of three).
func (n *Node) finishDistSession(ds *distSession, report *DistReport) {
	delete(n.distSessions, ds.target.ID)
	ds.deadline.Stop()
	for i := range ds.sample {
		ds.sample[i].Stop()
	}
	for _, seq := range ds.seqs[:ds.sent] {
		delete(n.distSeqs, seq)
	}
	target, ok := ds.target, ds.got > 0
	var rtt time.Duration
	if ok {
		rtt = medianDuration(ds.samples[:ds.got])
	}
	var buf [2]distWaiter
	waiters := append(buf[:0], ds.waiters...)
	n.parkDist(ds)
	if ok {
		if report == nil {
			report = new(DistReport)
		}
		*report = DistReport{From: n.self, RTT: rtt}
		n.send(target, report)
	}
	for _, w := range waiters {
		n.complete(w, rtt, ok)
	}
}

// complete runs one completion of a measurement; ok reports whether rtt
// was measured.
func (n *Node) complete(w distWaiter, rtt time.Duration, ok bool) {
	switch {
	case w.nn != nil:
		n.nnSample(w.nn, w.ref, rtt, ok)
	case ok:
		n.rt.AddWithRTT(w.ref, rtt)
	}
}

// handleDistProbe echoes a distance probe, in the echo the probe carries
// inline when it has one. The echo's fields are set one by one: its spare
// report, if any, is the prober's and rides back with it.
func (n *Node) handleDistProbe(p *DistProbe) {
	reply := takeSpare(&p.spareReply)
	reply.From, reply.Seq = n.self, p.Seq
	n.send(p.From, reply)
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
		if s.DistProbed != 0 && now-s.DistProbed < n.cfg.RTMaintenance {
			continue
		}
		s.DistProbed = now
		n.measureDistance(e, distProbeCount, nil)
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
