package harness

// The hop-level golden. A node's hop and probe bookkeeping lives in records
// it takes from free lists and reuses; this run is what says that reuse
// changed nothing a node does. Everything every node tells its observer —
// the Observer, TraceObserver and StatsObserver calls, in order — is
// written as one line each and compared with testdata/hops.golden, which
// was recorded by running this very file in a clone of the parent commit of
// the change that introduced the free lists (it uses nothing that commit
// lacks):
//
//	git clone . /tmp/parent && cd /tmp/parent && git checkout <parent>
//	cp <this file> internal/harness/ && go test ./internal/harness -run HopGolden -update
//
// and copying testdata/hops.golden back — the procedure of the recorded
// wire frames (internal/pastry/frames_test.go). Regenerate it only for a
// change that means to alter what nodes do, and say so. One has since:
// held lookups re-routed at every tick and reported dropped when their
// node crashes. It was re-recorded with -update on that change; against
// the earlier recording, 19 held lookups are delivered at an earlier tick
// by the same node and 3 crashes report a held lookup, and nothing else
// moved. Each line is now a telemetry.Event's String(), recorded by
// telemetry.Overlay, so the file pins the event vocabulary too; the file
// was unchanged by that move, and the recipe above needs a parent that has
// telemetry.Event. It was re-recorded with -update once more when passive
// repair began asking about a routing-table slot once per Trt: the first line
// that differs follows the first request that rule suppressed, and with
// the rule switched off the earlier recording is reproduced byte for byte.
// It was re-recorded with -update again when a full leaf set began
// probing only the candidates that can still enter it, and a node began
// announcing the failure of a right neighbour a peer's Failed list had
// removed. The first line that differs is a joiner's activation (node 22
// activates 9.5 s after its join, not 6.6 s); over the run, announcements
// rise from 45 to 99 lines and repair launches fall from 151 to 110.
// It was re-recorded with -update once more when a short leaf-set side
// began probing only as many candidates as it has free places, a candidate
// began giving up its place on its first timeout, and an announcement
// began reaching members already under probe. The first line that differs
// is a lookup node 34 forwards to node 12, not 32, from a routing table
// that fewer candidate exchanges filled; over the run, repair launches fall
// from 110 to 81 lines and announcements rise from 99 to 103.
// It was re-recorded with -update when join latency began to be measured
// from Join, not from the join's last restart: only the detail of the 3
// activations of restarted joins moved (9.5, 9.3 and 9.3 s became 47.3,
// 51.3 and 30.8 s), and no event moved.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/telemetry"
	"mspastry/internal/trace"
)

const hopsGoldenPath = "testdata/hops.golden"

// deafSlot is the endpoint that hears one message in ten: its hops go
// unacked whoever they are sent to, until the last attempt.
const deafSlot = 3

// joinRetryAfter is pastry's backoff before a stalled join starts over.
// The run has joins slower than that, though none that restarts: the
// restart path is TestJoinRetryParksProbesInFlight's (internal/pastry).
const joinRetryAfter = 30 * time.Second

// hopsConfig is a run small enough for tier-1 in which every way a hop or
// probe record ends occurs: ~60 nodes under heavy Poisson churn (crashes
// with hops and probes in flight, joins slower than joinRetryAfter),
// uniform loss plus one endpoint nearly deaf (reroutes, backed-off
// retransmissions, a small retry budget running dry, give-ups),
// duplication and reordering throughout (duplicate and stale acks),
// default breakers and HoldOnSuspect on.
func hopsConfig(t testing.TB) Config {
	topo, err := BuildTopology("corpnet", 4, 1)
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	dur := 4 * time.Minute
	cfg := DefaultConfig(topo, trace.Generate(trace.Poisson(3*time.Minute, 60, dur)))
	cfg.LookupRate = 0.03
	cfg.NetworkLoss = 0.05
	cfg.Window = time.Minute
	cfg.SetupRamp = time.Minute
	cfg.Seed = 24
	cfg.Pastry.RetryBudgetRate, cfg.Pastry.RetryBudgetBurst = 0.5, 2
	cfg.Faults = new(FaultScript).
		Add(0, dur, netmodel.Fault{Duplicate: 0.05}).
		Add(0, dur, netmodel.Fault{Reorder: 0.1, ReorderMax: 300 * time.Millisecond})
	for from := 0; from < cfg.Trace.Nodes; from++ {
		cfg.Faults.linkLoss(0, dur, from, deafSlot, 0.9)
	}
	return cfg
}

// hopLog is the observer of the golden run: a telemetry.Overlay records
// each call as a telemetry.Event, whose String() is one line of the file
// (time node event lookup peer detail), and passes the three calls the
// harness itself needs on to it. MessageSent fires for every message of
// the run and TrtTuned on every tick of every node, thirty times the rest
// together, and Overlay records neither: their events go into a digest
// that the log's last line carries, not into the file one by one.
type hopLog struct {
	*telemetry.Overlay
	events *telemetry.Tracer
	folded int
	digest [sha256.Size]byte
}

func (l *hopLog) digested(e telemetry.Event) {
	l.folded++
	l.digest = sha256.Sum256(append(l.digest[:], e.String()+"\n"...))
}

func (l *hopLog) MessageSent(n *pastry.Node, cat pastry.Category, retx bool) {
	e := telemetry.Event{At: n.Now(), Node: n.Ref(), Kind: telemetry.KindSent, Cause: cat.String()}
	if retx {
		e.Detail = 1
	}
	l.digested(e)
}

func (l *hopLog) TrtTuned(n *pastry.Node, trt time.Duration) {
	l.digested(telemetry.Event{At: n.Now(), Node: n.Ref(), Kind: telemetry.KindTrt, Detail: int64(trt)})
}

func TestHopGolden(t *testing.T) {
	r := newRun(hopsConfig(t))
	log := &hopLog{events: telemetry.NewTracer(0)}
	log.Overlay = telemetry.NewOverlay(telemetry.NewRegistry(), log.events, telemetry.OverlayOptions{Inner: r.obs})
	r.obs = log
	res := r.execute()
	var lines strings.Builder
	count := make(map[string]int)
	for _, e := range log.events.Recent(0) {
		line := e.String()
		lines.WriteString(line + "\n")
		count[strings.Fields(line)[2]]++
		if e.Kind == telemetry.KindActivated && time.Duration(e.Detail) >= joinRetryAfter {
			count["activated slower than joinRetryAfter"]++
		}
	}
	got := lines.String() + fmt.Sprintf("and %d sent and trt lines, sha256 %x\n", log.folded, log.digest)

	// The run is only worth comparing if the ways a record ends all
	// occurred; each is a counter the run or the log keeps.
	joins := 0
	for _, ev := range r.cfg.Trace.Events {
		if ev.Kind == trace.Join {
			joins++
		}
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{"acked hops (a record freed by its ack)", count["ackrtt"]},
		{"reroutes (a record re-armed for another next hop)", count["hop-reroute"]},
		{"backed-off retransmissions (re-armed for the same one)", count["hop-backoff"]},
		{"give-ups after the last attempt", count["dropped-retries"]},
		{"retry budgets run dry (the hold branch, and probes not resent)", int(res.Counters.RetryBudgetExhausted)},
		{"hop timeouts", int(res.Counters.Retransmits)},
		{"breakers opened", int(res.Counters.BreakerOpens)},
		{"leaf members marked faulty at a probe's last timeout and announced", count["leafset-announce"]},
		{"messages duplicated (duplicate acks)", int(res.FaultCounts.Duplicated)},
		{"messages reordered (stale acks)", int(res.FaultCounts.Reordered)},
		{"messages for a crashed node (crashes with hops and probes in flight)", int(res.DropsByCause[netmodel.DropDeadEndpoint])},
		{"joins under churn", joins},
		{"joins slower than joinRetryAfter", count["activated slower than joinRetryAfter"]},
	} {
		if c.n == 0 {
			t.Errorf("the run has no %s", c.name)
		}
	}
	t.Logf("events: %v; %d lines, %d bytes", count, strings.Count(got, "\n"), len(got))

	if *updateGolden {
		if err := os.WriteFile(hopsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(hopsGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (see the file header for how it is recorded): %v", err)
	}
	if string(want) != got {
		t.Fatalf("what the nodes did diverged from %s, recorded before hop and probe records were reused.\n%s",
			hopsGoldenPath, firstDiff(string(want), got))
	}
}
