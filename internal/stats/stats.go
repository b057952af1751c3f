// Package stats accumulates the evaluation metrics defined in the paper
// (§5.2): incorrect delivery rate and lookup loss rate for dependability;
// relative delay penalty (RDP) and control traffic (messages per second per
// node, broken down by category as in Figure 4) for performance; plus join
// latency for Figure 5.
//
// Metrics are windowed: the paper averages over 10-minute windows for the
// Gnutella/OverNet traces and 1-hour windows for Microsoft.
package stats

import (
	"fmt"
	"slices"
	"time"

	"mspastry/internal/pastry"
	"mspastry/internal/wire"
)

// numCategories is the number of pastry message categories (1-based enums).
const numCategories = pastry.CategoryCount

// Window accumulates raw counts for one averaging window.
type Window struct {
	Start time.Duration
	// ControlSent counts sent messages by category (lookups included at
	// index CatLookup but excluded from control-traffic rates); SentBytes
	// holds the corresponding single-frame encoded bytes, taken from the
	// wire layer so sim and live byte accounting agree.
	ControlSent [numCategories]int
	SentBytes   [numCategories]int
	// Outcomes counts lookups issued in this window; their deliveries and
	// losses are attributed to the window they were issued in.
	Outcomes
	// DelaySum and NetDelaySum accumulate achieved and direct delays (in
	// seconds) for delivered lookups with a non-zero network delay; their
	// ratio is the window's RDP. RatioSum/RDPCount tracks the secondary
	// mean-of-ratios form, which is dominated by near-zero-denominator
	// pairs and reported for comparison only.
	DelaySum    float64
	NetDelaySum float64
	RatioSum    float64
	RDPCount    int
	HopsSum     int
	// Retransmits counts per-hop retransmissions sent in this window
	// (attributed to send time, not issue time): the signature of a
	// retransmission storm under delay spikes or partitions.
	Retransmits int
	// nodeSeconds integrates the active-node count over the window.
	nodeSeconds float64
}

// Collector accumulates windows over a measured run.
type Collector struct {
	window   time.Duration
	duration time.Duration
	wins     []Window

	activeCount  int
	activeCursor time.Duration

	joinLatencies []time.Duration

	// Fault-phase accounting: when a fault window is set, lookup outcomes
	// are additionally attributed (by issue time) to the phase before,
	// during or after the fault.
	faultSet             bool
	faultStart, faultEnd time.Duration
	phases               PhaseTotals
}

// Phase labels the position of a time relative to a fault window.
type Phase int

const (
	// PhaseBefore is the healthy interval preceding the fault.
	PhaseBefore Phase = iota
	// PhaseDuring is the interval while the fault is active.
	PhaseDuring
	// PhaseAfter is the interval after the fault healed.
	PhaseAfter
)

func (p Phase) String() string {
	switch p {
	case PhaseBefore:
		return "before"
	case PhaseDuring:
		return "during"
	case PhaseAfter:
		return "after"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Outcomes counts lookups issued over a span of a run (a window, a fault
// phase) and what became of them, with the paper's two dependability rates.
type Outcomes struct {
	Issued    int
	Delivered int
	Incorrect int
	Lost      int
}

// IncorrectRate is incorrect deliveries over issued lookups.
func (o Outcomes) IncorrectRate() float64 {
	if o.Issued == 0 {
		return 0
	}
	return float64(o.Incorrect) / float64(o.Issued)
}

// LossRate is lost lookups over issued lookups.
func (o Outcomes) LossRate() float64 {
	if o.Issued == 0 {
		return 0
	}
	return float64(o.Lost) / float64(o.Issued)
}

// PhaseTotals carries the three phases of a faulted run.
type PhaseTotals struct {
	Before, During, After Outcomes
}

// NewCollector creates a collector for a run of the given duration with
// the given averaging window.
func NewCollector(duration, window time.Duration) *Collector {
	if window <= 0 || duration <= 0 {
		panic("stats: duration and window must be positive")
	}
	nwin := int((duration + window - 1) / window)
	c := &Collector{window: window, duration: duration, wins: make([]Window, nwin)}
	for i := range c.wins {
		c.wins[i].Start = time.Duration(i) * window
	}
	return c
}

// winIndex maps a time to its window, clamping to the run bounds. Times
// before the measured interval (setup phase) return -1.
func (c *Collector) winIndex(t time.Duration) int {
	if t < 0 {
		return -1
	}
	i := int(t / c.window)
	if i >= len(c.wins) {
		i = len(c.wins) - 1
	}
	return i
}

// MsgSent records one sent message at time t with its single-frame
// encoded size in bytes. Retransmissions keep their control category
// (a retx envelope reports CatAck).
func (c *Collector) MsgSent(t time.Duration, cat pastry.Category, bytes int) {
	if i := c.winIndex(t); i >= 0 {
		c.wins[i].ControlSent[cat]++
		c.wins[i].SentBytes[cat] += bytes
	}
}

// DatagramSent records nothing: a frame carries one message, which
// MsgSent has counted, so the datagram rates are the message rates.
func (c *Collector) DatagramSent(time.Duration, bool, int, int) {}

// Retransmit records one per-hop retransmission sent at time t.
func (c *Collector) Retransmit(t time.Duration) {
	if i := c.winIndex(t); i >= 0 {
		c.wins[i].Retransmits++
	}
}

// SetFaultWindow declares the interval during which an injected fault is
// active, enabling before/during/after phase accounting of lookup
// outcomes. Call before measurement starts.
func (c *Collector) SetFaultWindow(start, end time.Duration) {
	if end < start {
		panic("stats: fault window ends before it starts")
	}
	c.faultSet = true
	c.faultStart, c.faultEnd = start, end
}

// ExtendFaultWindow pushes the fault window's end out to end (never
// pulling it in). The harness uses it while an overlay is still repairing
// after a fault cleared: the outage is not over — and lookups should not
// count towards the "after" phase — until the overlay has re-converged.
func (c *Collector) ExtendFaultWindow(end time.Duration) {
	if !c.faultSet {
		return
	}
	if end > c.faultEnd {
		c.faultEnd = end
	}
}

// phase maps an issue time to its fault phase; ok is false when no fault
// window was declared or the time precedes measurement.
func (c *Collector) phase(t time.Duration) (*Outcomes, bool) {
	if !c.faultSet || t < 0 {
		return nil, false
	}
	switch {
	case t < c.faultStart:
		return &c.phases.Before, true
	case t < c.faultEnd:
		return &c.phases.During, true
	default:
		return &c.phases.After, true
	}
}

// Phases returns the per-phase lookup outcomes (zero value when no fault
// window was declared).
func (c *Collector) Phases() PhaseTotals { return c.phases }

// LookupIssued records a lookup entering the overlay at time t.
func (c *Collector) LookupIssued(t time.Duration) {
	if i := c.winIndex(t); i >= 0 {
		c.wins[i].Issued++
	}
	if p, ok := c.phase(t); ok {
		p.Issued++
	}
}

// LookupDelivered records a delivery for a lookup issued at issueT, with
// the achieved delay and the direct network delay between source and root
// (zero when the source routed to itself, which excludes the sample from
// the delay-penalty statistics).
func (c *Collector) LookupDelivered(issueT time.Duration, correct bool, delay, netDelay time.Duration, hops int) {
	i := c.winIndex(issueT)
	if i < 0 {
		return
	}
	w := &c.wins[i]
	w.Delivered++
	if !correct {
		w.Incorrect++
	}
	if p, ok := c.phase(issueT); ok {
		p.Delivered++
		if !correct {
			p.Incorrect++
		}
	}
	if netDelay > 0 {
		w.DelaySum += delay.Seconds()
		w.NetDelaySum += netDelay.Seconds()
		w.RatioSum += float64(delay) / float64(netDelay)
		w.RDPCount++
	}
	w.HopsSum += hops
}

// LookupLost records that a lookup issued at issueT was never delivered.
func (c *Collector) LookupLost(issueT time.Duration) {
	if i := c.winIndex(issueT); i >= 0 {
		c.wins[i].Lost++
	}
	if p, ok := c.phase(issueT); ok {
		p.Lost++
	}
}

// ActiveChanged updates the active-node count at time t (delta of +1 or
// -1), integrating node-seconds into the windows in between.
func (c *Collector) ActiveChanged(t time.Duration, delta int) {
	c.integrateTo(t)
	c.activeCount += delta
	if c.activeCount < 0 {
		panic("stats: negative active count")
	}
}

func (c *Collector) integrateTo(t time.Duration) {
	if t < 0 {
		// Still in the setup phase: track the count, integrate nothing.
		return
	}
	if c.activeCursor < 0 {
		c.activeCursor = 0
	}
	if t > c.duration {
		t = c.duration
	}
	for c.activeCursor < t {
		i := c.winIndex(c.activeCursor)
		winEnd := time.Duration(i+1) * c.window
		seg := t
		if winEnd < seg {
			seg = winEnd
		}
		c.wins[i].nodeSeconds += float64(c.activeCount) * (seg - c.activeCursor).Seconds()
		c.activeCursor = seg
	}
}

// JoinLatency records one completed join.
func (c *Collector) JoinLatency(d time.Duration) {
	c.joinLatencies = append(c.joinLatencies, d)
}

// WindowStat is one finalized window row: the numbers the paper plots.
// Its Outcomes are the lookups issued in the window, with the paper's two
// dependability rates as methods.
type WindowStat struct {
	Start time.Duration
	// MeanActive is the average number of active nodes in the window.
	MeanActive float64
	// ControlPerNodeSec is control messages (everything except lookups)
	// sent per second per node.
	ControlPerNodeSec float64
	// ByCategory breaks control traffic down as in Figure 4 (right).
	ByCategory map[pastry.Category]float64
	// ControlBytesPerNodeSec is control traffic measured in encoded wire
	// bytes rather than messages.
	ControlBytesPerNodeSec float64
	// DatagramsPerNodeSec and ControlDatagramsPerNodeSec count frames on
	// the wire. A frame carries one message, so they equal
	// TotalPerNodeSec and ControlPerNodeSec.
	DatagramsPerNodeSec        float64
	ControlDatagramsPerNodeSec float64
	// RDP is the relative delay penalty for lookups issued in the window:
	// total achieved delay over total direct delay (the ratio-of-means
	// form, which is robust to near-zero direct delays).
	RDP float64
	// RDPMeanOfRatios is the per-lookup mean of delay ratios, reported
	// for comparison; heavy-tailed when sources sit next to roots.
	RDPMeanOfRatios float64
	// MeanHops is the average overlay hop count.
	MeanHops float64
	Outcomes
	// RetxPerNodeSec is per-hop retransmissions sent per second per node:
	// the retransmission-storm indicator under delay spikes and
	// partitions.
	RetxPerNodeSec float64
	// TotalPerNodeSec is every message sent per second per node, lookups
	// and application traffic included: Figure 8's series.
	TotalPerNodeSec float64
}

// Finalize integrates the remaining node-seconds and produces per-window
// rows.
func (c *Collector) Finalize() []WindowStat {
	c.integrateTo(c.duration)
	out := make([]WindowStat, len(c.wins))
	for i, w := range c.wins {
		winLen := c.window
		if end := c.duration - w.Start; end < winLen {
			winLen = end
		}
		out[i] = w.rates(winLen, wire.Control)
	}
	return out
}

// add folds o's counts into w.
func (w *Window) add(o *Window) {
	for cat := range w.ControlSent {
		w.ControlSent[cat] += o.ControlSent[cat]
		w.SentBytes[cat] += o.SentBytes[cat]
	}
	w.Issued += o.Issued
	w.Delivered += o.Delivered
	w.Incorrect += o.Incorrect
	w.Lost += o.Lost
	w.DelaySum += o.DelaySum
	w.NetDelaySum += o.NetDelaySum
	w.RatioSum += o.RatioSum
	w.RDPCount += o.RDPCount
	w.HopsSum += o.HopsSum
	w.Retransmits += o.Retransmits
	w.nodeSeconds += o.nodeSeconds
}

// rates computes the paper's rates from a window's counts accumulated over
// length: the one formula for each, applied to every window and, folded,
// to the whole run. ByCategory holds the categories listed selects.
func (w *Window) rates(length time.Duration, listed func(pastry.Category) bool) WindowStat {
	row := WindowStat{Start: w.Start, Outcomes: w.Outcomes, ByCategory: make(map[pastry.Category]float64)}
	if length > 0 {
		row.MeanActive = w.nodeSeconds / length.Seconds()
	}
	if w.nodeSeconds > 0 {
		var control, controlBytes, all int
		for i := 1; i < numCategories; i++ {
			cat := pastry.Category(i)
			all += w.ControlSent[cat]
			if listed(cat) {
				row.ByCategory[cat] = float64(w.ControlSent[cat]) / w.nodeSeconds
			}
			if wire.Control(cat) {
				control += w.ControlSent[cat]
				controlBytes += w.SentBytes[cat]
			}
		}
		row.ControlPerNodeSec = float64(control) / w.nodeSeconds
		row.TotalPerNodeSec = float64(all) / w.nodeSeconds
		row.ControlBytesPerNodeSec = float64(controlBytes) / w.nodeSeconds
		row.DatagramsPerNodeSec = row.TotalPerNodeSec
		row.ControlDatagramsPerNodeSec = row.ControlPerNodeSec
		row.RetxPerNodeSec = float64(w.Retransmits) / w.nodeSeconds
	}
	if w.RDPCount > 0 && w.NetDelaySum > 0 {
		row.RDP = w.DelaySum / w.NetDelaySum
		row.RDPMeanOfRatios = w.RatioSum / float64(w.RDPCount)
	}
	if w.Delivered > 0 {
		row.MeanHops = float64(w.HopsSum) / float64(w.Delivered)
	}
	return row
}

// Totals summarises a whole run: its windows folded into one row (with
// ByCategory holding every category, lookups and application traffic
// included), plus the counts only a whole run has.
type Totals struct {
	WindowStat
	Joins             int
	MedianJoinLatency time.Duration
	// Retransmits is the run total of per-hop retransmissions;
	// PeakRetxPerNodeSec is the highest windowed retransmission rate (the
	// storm's amplitude).
	Retransmits        int
	PeakRetxPerNodeSec float64
}

// Totals aggregates over the full run: the windows folded into one that
// spans it, with the rates Finalize computes per window. Call after the
// run completes.
func (c *Collector) Totals() Totals {
	var sum Window
	var peak float64
	for i, row := range c.Finalize() {
		sum.add(&c.wins[i])
		peak = max(peak, row.RetxPerNodeSec)
	}
	t := Totals{
		WindowStat:         sum.rates(c.duration, func(pastry.Category) bool { return true }),
		Joins:              len(c.joinLatencies),
		Retransmits:        sum.Retransmits,
		PeakRetxPerNodeSec: peak,
	}
	if joins := c.sortedJoins(); len(joins) > 0 {
		t.MedianJoinLatency = joins[len(joins)/2]
	}
	return t
}

// sortedJoins sorts the join latencies in place, once for the median and
// the CDF alike.
func (c *Collector) sortedJoins() []time.Duration {
	slices.Sort(c.joinLatencies)
	return c.joinLatencies
}

// JoinLatencyCDF returns (latency, cumulative fraction) points for the
// join-latency CDF plotted in Figure 5 (right).
func (c *Collector) JoinLatencyCDF() []CDFPoint {
	s := c.sortedJoins()
	if len(s) == 0 {
		return nil
	}
	out := make([]CDFPoint, len(s))
	for i, v := range s {
		out[i] = CDFPoint{Latency: v, Fraction: float64(i+1) / float64(len(s))}
	}
	return out
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64
}

// RecoveryStat measures overlay repair after an injected fault heals: the
// virtual time from the heal instant until every active node's ring
// neighbours again match the ground truth (and every leaf set is
// complete).
type RecoveryStat struct {
	// HealAt is the measured time the fault healed.
	HealAt time.Duration
	// RepairedAt is the measured time global ring consistency was first
	// observed after the heal (polling granularity applies).
	RepairedAt time.Duration
	// Repaired reports whether consistency was restored before the run
	// ended.
	Repaired bool
}

// TimeToRepair is the repair latency; zero when the overlay never
// repaired within the run.
func (r RecoveryStat) TimeToRepair() time.Duration {
	if !r.Repaired {
		return 0
	}
	return r.RepairedAt - r.HealAt
}

// String renders totals compactly for reports.
func (t Totals) String() string {
	return fmt.Sprintf(
		"issued=%d delivered=%d loss=%.2e incorrect=%.2e rdp=%.2f hops=%.2f control=%.3f msgs/s/node active=%.0f",
		t.Issued, t.Delivered, t.LossRate(), t.IncorrectRate(), t.RDP, t.MeanHops, t.ControlPerNodeSec, t.MeanActive)
}
