package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want []string // on stdout when code is 0, on stderr otherwise
	}{
		{"-trace poisson -session 10m -nodes 50 -duration 1h", 0,
			[]string{"trace poisson-10m: ", " events over 1h0m0s", "active nodes: ", "mean completed session: ", "failures/n/s", "\n50m0s "}},
		{"-trace gnutella -trace-div 32 -max-dur 30m", 0, []string{"trace gnutella: ", "over 30m0s", "\n20m0s "}},
		{"-trace overnet -trace-div 8 -max-dur 20m -seed 9", 0, []string{"trace overnet: "}},
		{"-trace microsoft -trace-div 200 -max-dur 20m", 0, []string{"trace microsoft: "}},
		{"-trace kazaa", 2, []string{`unknown trace family "kazaa": want gnutella, overnet, microsoft or poisson` + "\n"}},
		{"-trace poisson -session 0", 2, []string{"-session and -duration must be positive"}},
		{"-trace poisson -nodes 0", 2, []string{"-nodes >= 1"}},
		{"-o out.trace", 2, []string{"flag provided but not defined: -o"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != tc.code {
			t.Errorf("%q exited %d, want %d (stderr: %s)", tc.args, code, tc.code, stderr.String())
			continue
		}
		out := stdout.String()
		if tc.code != 0 {
			if out != "" {
				t.Errorf("%q printed before it was rejected:\n%s", tc.args, out)
			}
			out = stderr.String()
		}
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%q: output lacks %q:\n%s", tc.args, want, out)
			}
		}
	}
}

// The seed is part of the trace's identity: same flags, same trace; a
// different seed, a different one.
func TestSeedSelectsTheTrace(t *testing.T) {
	gen := func(args string) string {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
			t.Fatalf("%q exited %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	const base = "-trace poisson -session 10m -nodes 50 -duration 1h"
	if gen(base) != gen(base) {
		t.Fatal("same flags, different traces")
	}
	if gen(base) == gen(base+" -seed 7") {
		t.Fatal("-seed 7 printed the default-seed trace")
	}
}
