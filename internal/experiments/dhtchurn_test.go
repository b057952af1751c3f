package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/dht"
	"mspastry/internal/eventsim"
	"mspastry/internal/harness"
	"mspastry/internal/id"
	"mspastry/internal/trace"
)

// dhtChurnWorkload issues a put or a get every half second from a random
// active node, over a few keys, and tallies what became of them.
type dhtChurnWorkload struct {
	*dhtMount
	dur                              time.Duration
	putsAcked, putsFailed            int
	getsOK, getsNotFound, getsFailed int
	issued                           int
}

func (w *dhtChurnWorkload) Start(sim *eventsim.Simulator) {
	rng := rand.New(rand.NewSource(7))
	end := sim.Now() + w.dur
	var op func()
	op = func() {
		if sim.Now() >= end {
			return
		}
		s := w.bySlot[rng.Intn(len(w.bySlot))]
		k := rng.Intn(16)
		put := rng.Intn(2) == 0
		if s != nil && s.Node().Alive() && s.Node().Active() {
			w.issued++
			key := id.FromKey(fmt.Sprintf("churn-key-%d", k))
			if put {
				s.Put(key, []byte(fmt.Sprintf("value at %v", sim.Now())), func(err error) {
					if err == nil {
						w.putsAcked++
					} else {
						w.putsFailed++
					}
				})
			} else {
				s.Get(key, func(_ []byte, err error) {
					switch {
					case err == nil:
						w.getsOK++
					case errors.Is(err, dht.ErrNotFound):
						w.getsNotFound++
					default:
						w.getsFailed++
					}
				})
			}
		}
		sim.After(500*time.Millisecond, op)
	}
	op()
}

// TestDHTUnderGoldenChurn mounts the dht store on the harness's golden
// churn shape — 48 nodes in Poisson 2-minute sessions for 200 s at 2%
// loss, seed 7 — and drives a small put/get workload beside the run's
// own lookups. Roots change under the workload, so this is the run in
// which an acknowledged write's order is to be checked; here it checks
// that the workload did work and that the ring oracle saw no incorrect
// delivery.
func TestDHTUnderGoldenChurn(t *testing.T) {
	topo, err := harness.BuildTopology("gatech", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	dur := 200 * time.Second
	tr := trace.Generate(trace.Poisson(2*time.Minute, 48, dur))
	w := &dhtChurnWorkload{dhtMount: newDHTMount(tr.Nodes, dht.DefaultConfig()), dur: dur}
	cfg := harness.DefaultConfig(topo, tr)
	cfg.LookupRate = 0.1
	cfg.NetworkLoss = 0.02
	cfg.Window = 50 * time.Second
	cfg.SetupRamp = time.Minute
	cfg.Seed = 7
	cfg.App = w
	res := harness.Run(cfg)

	t.Logf("dht ops issued=%d; puts acked=%d failed=%d; gets ok=%d notFound=%d failed=%d; stores mounted=%d",
		w.issued, w.putsAcked, w.putsFailed, w.getsOK, w.getsNotFound, w.getsFailed, len(w.stores))
	t.Logf("oracle: %v", res.Totals)
	if w.putsAcked == 0 || w.getsOK == 0 {
		t.Errorf("vacuous workload: %d puts acked, %d gets ok", w.putsAcked, w.getsOK)
	}
	if len(w.stores) <= len(tr.Initial) {
		t.Errorf("%d stores mounted for %d initial nodes: no node joined under the workload", len(w.stores), len(tr.Initial))
	}
	if res.Totals.Delivered == 0 {
		t.Error("the oracle judged no lookup")
	}
	if res.Totals.Incorrect != 0 {
		t.Errorf("oracle saw %d incorrect deliveries", res.Totals.Incorrect)
	}
}
