package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mspastry/internal/netmodel"
	"mspastry/internal/trace"
)

// stableTrace returns a churn-free trace: n nodes active for the whole
// run, so fault effects are not confounded with churn.
func stableTrace(n int, d time.Duration) *trace.Trace {
	tr := &trace.Trace{Name: "stable", Duration: d, Nodes: n}
	for i := 0; i < n; i++ {
		tr.Initial = append(tr.Initial, i)
	}
	return tr
}

func faultConfig(t *testing.T, n int, d time.Duration) Config {
	t.Helper()
	topo, err := BuildTopology("corpnet", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(topo, stableTrace(n, d))
	cfg.SetupRamp = 2 * time.Minute
	cfg.Window = 2 * time.Minute
	cfg.LookupRate = 0.05
	cfg.Seed = 1
	return cfg
}

func TestPartitionHealsAndRepairs(t *testing.T) {
	cfg := faultConfig(t, 40, 24*time.Minute)
	cfg.Faults = new(FaultScript).Partition(6*time.Minute, 90*time.Second, 0.5)
	res := Run(cfg)

	if len(res.Recovery) != 1 {
		t.Fatalf("recovery entries = %d, want 1", len(res.Recovery))
	}
	rec := res.Recovery[0]
	if !rec.Repaired {
		t.Fatal("overlay did not repair after the partition healed")
	}
	if ttr := rec.TimeToRepair(); ttr <= 0 || ttr > 10*time.Minute {
		t.Fatalf("time-to-repair = %v, want finite and < 10m", ttr)
	}
	if res.DropsByCause[netmodel.DropPartition] == 0 {
		t.Fatal("no partition drops accounted during the split")
	}
	ph := res.Phases
	if ph.Before.Issued == 0 || ph.During.Issued == 0 || ph.After.Issued == 0 {
		t.Fatalf("phase accounting incomplete: %+v", ph)
	}
	// The headline dependability number: after the heal (and repair) no
	// lookup may be delivered at a wrong root.
	if ph.Before.Incorrect != 0 {
		t.Fatalf("%d incorrect deliveries before the partition", ph.Before.Incorrect)
	}
}

func TestFaultScriptDeterministic(t *testing.T) {
	runOnce := func() Result {
		cfg := faultConfig(t, 30, 16*time.Minute)
		cfg.Faults = new(FaultScript).
			Partition(5*time.Minute, time.Minute, 0.5).
			Add(9*time.Minute, time.Minute, netmodel.Fault{Jitter: 50 * time.Millisecond}).
			Add(11*time.Minute, time.Minute, netmodel.Fault{Duplicate: 0.1})
		return Run(cfg)
	}
	a, b := runOnce(), runOnce()
	if !reflect.DeepEqual(a.Windows, b.Windows) {
		t.Fatal("windowed metrics diverged under the same seed")
	}
	if a.Phases != b.Phases {
		t.Fatalf("phase metrics diverged: %+v vs %+v", a.Phases, b.Phases)
	}
	if a.DropsByCause != b.DropsByCause {
		t.Fatalf("drop classification diverged: %v vs %v", a.DropsByCause, b.DropsByCause)
	}
	if !reflect.DeepEqual(a.Recovery, b.Recovery) {
		t.Fatalf("recovery diverged: %+v vs %+v", a.Recovery, b.Recovery)
	}
	if a.FaultCounts != b.FaultCounts {
		t.Fatalf("fault counters diverged: %+v vs %+v", a.FaultCounts, b.FaultCounts)
	}
}

func TestDelaySpikeCausesRetransmissionStorm(t *testing.T) {
	base := faultConfig(t, 30, 16*time.Minute)
	calm := Run(base)

	spiky := faultConfig(t, 30, 16*time.Minute)
	spiky.Faults = new(FaultScript).Add(6*time.Minute, 30*time.Second, netmodel.Fault{Spike: time.Second})
	res := Run(spiky)

	if res.Totals.Retransmits <= calm.Totals.Retransmits {
		t.Fatalf("spike retransmits %d not above calm %d",
			res.Totals.Retransmits, calm.Totals.Retransmits)
	}
	if res.Totals.PeakRetxPerNodeSec <= calm.Totals.PeakRetxPerNodeSec {
		t.Fatalf("spike peak retx rate %.4f not above calm %.4f",
			res.Totals.PeakRetxPerNodeSec, calm.Totals.PeakRetxPerNodeSec)
	}
}

// TestFaultScriptRejectsOpenWindows: a window must close, so Add and
// Partition refuse a dur that is not positive, as netmodel's At does.
func TestFaultScriptRejectsOpenWindows(t *testing.T) {
	for _, add := range []func(s *FaultScript){
		func(s *FaultScript) { s.Add(time.Minute, 0, netmodel.Fault{Spike: time.Second}) },
		func(s *FaultScript) { s.Add(time.Minute, -time.Second, netmodel.Fault{Spike: time.Second}) },
		func(s *FaultScript) { s.Partition(time.Minute, 0, 0.5) },
		func(s *FaultScript) { s.Partition(time.Minute, -time.Second, 0.5) },
	} {
		s := new(FaultScript)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "dur") {
					t.Errorf("panicked with %v, want one naming dur", r)
				}
			}()
			add(s)
		}()
		if len(s.events) != 0 {
			t.Errorf("a rejected window was scripted: %+v", s.events)
		}
	}
}
