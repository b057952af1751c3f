package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"
)

// TestRegistry holds the one list to what its readers assume: names that
// select exactly one experiment, and a section in EXPERIMENTS.md for each.
func TestRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, e := range All {
		if e.Name == "" || e.Name == "all" || strings.IndexFunc(e.Name, unicode.IsSpace) >= 0 {
			t.Errorf("experiment name %q is empty, reserved or has spaces", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("experiment name %q is listed twice", e.Name)
		}
		seen[e.Name] = true
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("%s: Title, Paper and Run are all required", e.Name)
		}
		heading := regexp.MustCompile("(?m)^#+ .*`" + regexp.QuoteMeta(e.Name) + "`")
		if !heading.Match(doc) {
			t.Errorf("no EXPERIMENTS.md heading names `%s`", e.Name)
		}
	}
}

// goldenScale is small enough for every simulated experiment to run in
// well under a minute together, and still has every one of them route
// lookups under churn.
func goldenScale() Scale {
	return Scale{
		TopoDiv:         16,
		TraceDiv:        48,
		MaxDuration:     6 * time.Minute,
		PoissonNodes:    40,
		PoissonDuration: 8 * time.Minute,
		SetupRamp:       time.Minute,
		Seed:            1,
		HotspotNodes:    16,
		HotspotDuration: 45 * time.Second,
	}
}

// writeGolden renders a report with every float at full precision, so
// equal bits give equal text. Titles are left out: they are prose.
func writeGolden(w io.Writer, name string, rep Report) {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(w, "== %s ==\n", name)
	for i, t := range rep.Tables {
		fmt.Fprintf(w, "table %d: %s\n", i, strings.Join(t.Cols, " "))
		for _, r := range t.Rows {
			fmt.Fprintf(w, "  %s:", r.Label)
			for _, c := range t.Cols {
				fmt.Fprintf(w, " %s", g(r.Values[c]))
			}
			fmt.Fprintln(w)
		}
	}
	for _, h := range rep.Headlines {
		fmt.Fprintf(w, "headline %s: %s\n", h.Name, g(h.Value))
	}
}

// TestExperimentTablesGolden runs the whole registry (bar the live
// experiment) at goldenScale and compares every table and headline with
// testdata/tables.golden, which was recorded by this same driver from the
// result types of the commit before the registry existed. A seeded
// number that moves here moved in mspastry-bench too. Its lines were
// since re-recorded once, with writeGolden, for a change to what nodes
// do: a joiner's join request carries its Trt hint, and held lookups are
// re-routed at every tick and dropped after a bound. They were
// re-recorded again, the same way, when passive repair began asking
// about a routing-table slot once per Trt, not on every lookup, once more
// when a full leaf set began probing only the candidates that can still
// enter it, and again when a short side began doing the same.
// The fig5join rows and join-p95 headline were re-recorded by hand when
// join latency began to be measured from Join, not from the join's last
// restart: nothing a node does moved, only what it reports.
// The hotspot on/stable and on/churn hitsL cells were re-recorded by hand
// (627 → 624 and 604 → 601) when a caching client's own write began to
// drop its cached copy: three reads a run, by a key's writer, that its
// cache answered with the value it had just overwritten now go to the
// key's root.
// The hotspot, antientropy and fig8 blocks were re-recorded when those
// experiments moved onto harness.Run, whose overlay joins over a random
// ramp through random active seeds, and the massfailure block when it
// began to kill exactly half of its nodes (CHANGES.md lists each cell).
func TestExperimentTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulated experiment: ~25 s")
	}
	want, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, e := range All {
		if e.Live {
			continue
		}
		rep, err := e.Run(goldenScale())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, h := range rep.Headlines {
			if h.Name == "" || strings.IndexFunc(h.Name, unicode.IsSpace) >= 0 {
				t.Errorf("%s: headline %q cannot be a benchmark metric unit", e.Name, h.Name)
			}
		}
		writeGolden(&got, e.Name, rep)
	}
	lines := func(text string) []string { return strings.Split(strings.TrimRight(text, "\n"), "\n") }
	wantLines, gotLines := lines(string(want)), lines(got.String())
	for i := 0; i < len(wantLines) && i < len(gotLines); i++ {
		if wantLines[i] != gotLines[i] {
			t.Fatalf("tables diverge from testdata/tables.golden at line %d:\n want: %s\n got:  %s",
				i+1, wantLines[i], gotLines[i])
		}
	}
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
}
