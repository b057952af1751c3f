package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A rejected command line exits 2 with its message and nothing else: no
// header, so no topology was built and no trace generated.
func TestRejectedFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-no-such-flag", "flag provided but not defined"},
		{"-topo ring", `unknown topology "ring"`},
		{"-trace kazaa", `unknown trace family "kazaa": want gnutella, overnet, microsoft or poisson` + "\n"},
		{"-topo-div 0", "-topo-div and -trace-div must be >= 1"},
		{"-trace-div 0", "-topo-div and -trace-div must be >= 1"},
		{"-max-dur -1s", "-max-dur must be >= 0"},
		{"-session 0", "-session and -duration must be positive"},
		{"-duration 0", "-session and -duration must be positive"},
		{"-nodes 0", "-nodes >= 1"},
		{"-loss 1", "-loss 1 outside [0,1)"},
		{"-lookups -1", "-lookups must be >= 0"},
		{"-workload pareto", "-workload must be uniform or zipf"},
		{"-zipf-s 0", "-zipf-s must be > 0"},
		{"-zipf-keys 0", "-zipf-keys must be >= 1"},
		{"-svc-queue 32", "-svc-queue and -svc-rate must be set together"},
		{"-svc-rate 50", "-svc-queue and -svc-rate must be set together"},
		{"-svc-queue -1 -svc-rate -1", "-svc-queue and -svc-rate must be >= 0"},
		{"-malicious-frac 1", "-malicious-frac 1 outside [0,1)"},
		{"-fault-at 1m -partition-frac 1", "-partition-frac 1 outside [0,1)"},
		{"-fault-at 1m -spike -1s", "-spike must be non-negative"},
		{"-fault-at 1m -fault-dur 0", "-fault-dur must be positive"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 2 {
			t.Errorf("%q exited %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q printed before it was rejected:\n%s", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr %q lacks %q", tc.args, stderr.String(), tc.want)
		}
	}
}

var closingLines = regexp.MustCompile(`(?m)^lookups: issued=\d+ delivered=\d+ incorrect=\d+ dropped=\d+ timeout_lost=\d+\n` +
	`simulated \S+ in \S+ \(\d+ events, \d+ events/s, [0-9.]+ allocs/event, \d+ B/event\)$`)

// mountedLayer matches a secure routing line with at least one report: a
// layer that is never mounted prints the line with reports=0.
var mountedLayer = regexp.MustCompile(`(?m)^secure routing: reports=[1-9]`)

// Small runs end to end: every section of the report that a flag turns on
// is printed, and the closing line carries the cost columns after the
// line that accounts for every lookup.
func TestRunPrintsTheReport(t *testing.T) {
	for _, tc := range []struct {
		name string
		args string
		want []string
	}{
		{"poisson with telemetry",
			"-trace poisson -topo corpnet -nodes 40 -duration 12m -session 30m -lookups 0.05 -seed 3 -metrics-dump - -trace-lookups",
			[]string{"# topology=corpnet", "trace=poisson", "\nwindow ", "\nTOTALS  ", "\ncontrol breakdown (msg/s/node):",
				"\nself-tuned Trt", "\ndrops by cause:", "\nhop traces: delivered=", "\nmspastry_lookups_issued_total "}},
		{"adversary, zipf, capacity and faults",
			"-trace poisson -nodes 40 -duration 10m -session 1h -topo-div 16 -lookups 0.05 -loss 0.01 " +
				"-malicious-frac 0.1 -secure-routing -workload zipf -zipf-s 1.0 -zipf-keys 256 " +
				"-svc-queue 64 -svc-rate 2000 -fault-at 3m -fault-dur 1m -partition-frac 0.5 -spike 1s",
			[]string{"# workload=zipf s=1 keys=256", "# adversary: frac=0.10 secure-routing=true", "\nservice sheds by lane:",
				"\nadversary: marked=5 ", "\nsecure routing: reports=", "\nfault counters:", "\nduring-fault ", "\nrecovery: healed at "}},
		{"scaled gnutella",
			"-trace gnutella -trace-div 64 -max-dur 15m -topo mercator",
			[]string{"# topology=mercator", "trace=gnutella", "\nTOTALS  "}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exited %d: %s", tc.name, code, stderr.String())
		}
		out := stdout.String()
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, want, out)
			}
		}
		if strings.Contains(out, "\nsecure routing: ") && !mountedLayer.MatchString(out) {
			t.Errorf("%s: the secure layer evaluated no report:\n%s", tc.name, out)
		}
		if !closingLines.MatchString(out) {
			t.Errorf("%s: no lookup accounting and closing cost lines:\n%s", tc.name, out)
		}
	}
}

// A failure after the CPU profile started must still leave a complete
// profile behind: returning an exit code runs the deferred StopCPUProfile,
// which log.Fatal used to skip.
func TestProfilesAreCompleteEvenOnFailure(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, dump := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "metrics.txt")
	small := "-trace poisson -topo corpnet -nodes 20 -duration 6m -cpuprofile " + cpu

	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields(small+" -metrics-dump "+filepath.Join(dir, "missing", "metrics.txt")), &stdout, &stderr); code != 1 {
		t.Fatalf("unwritable -metrics-dump exited %d, want 1 (stderr: %s)", code, stderr.String())
	}
	readGzip(t, cpu)

	stdout.Reset()
	stderr.Reset()
	if code := run(strings.Fields(small+" -memprofile "+mem+" -metrics-dump "+dump), &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d: %s", code, stderr.String())
	}
	readGzip(t, cpu)
	readGzip(t, mem)
	if b, err := os.ReadFile(dump); err != nil || !bytes.Contains(b, []byte("mspastry_lookups_issued_total")) {
		t.Fatalf("metrics dump file: err=%v, %d bytes", err, len(b))
	}
}

// readGzip fails the test unless path holds a complete gzip stream, which
// is what a finished pprof profile is.
func readGzip(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
		t.Fatalf("%s: truncated profile (%d bytes inflated, err=%v)", path, n, err)
	}
}
