package harness

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mspastry/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden report files")

// goldenChurnConfig is the fixed-seed churn run whose report is pinned
// bit-for-bit across refactors: 200s of heavy Poisson churn (mean
// session 2 minutes, ~48 nodes) with lookups and uniform loss. Any
// change to the seeded draw sequence — message emission order, probe
// scheduling, eviction order — shows up here.
func goldenChurnConfig(t testing.TB) Config {
	topo, err := BuildTopology("gatech", 8, 1)
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	dur := 200 * time.Second
	tr := trace.Generate(trace.Poisson(2*time.Minute, 48, dur))
	cfg := DefaultConfig(topo, tr)
	cfg.LookupRate = 0.1
	cfg.NetworkLoss = 0.02
	cfg.Window = 50 * time.Second
	cfg.SetupRamp = time.Minute
	cfg.lossTimeout = 30 * time.Second
	cfg.Seed = 7
	return cfg
}

const goldenReportPath = "testdata/churn_seed7_report.golden"

// TestFixedSeedReportGolden runs the pinned churn config and compares
// its canonical report byte-for-byte against the committed golden.
// Regenerate with: go test ./internal/harness -run FixedSeedReport -update
func TestFixedSeedReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("200s churn sim: skipped in -short")
	}
	got := Run(goldenChurnConfig(t)).ReportString()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenReportPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReportPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenReportPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenReportPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if string(want) != got {
		t.Fatalf("report diverged from golden %s.\nThe seeded simulation is no longer bit-identical; if the change is intentional, regenerate with -update.\n%s",
			goldenReportPath, firstDiff(string(want), got))
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := splitLines(want), splitLines(got)
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return "line " + itoa(i+1) + ":\n  want: " + wl[i] + "\n  got:  " + gl[i]
		}
	}
	if len(wl) != len(gl) {
		return "line counts differ: want " + itoa(len(wl)) + ", got " + itoa(len(gl))
	}
	return "(no line diff found)"
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
