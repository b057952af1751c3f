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
		{"-topo corpnet -samples 20", 0, []string{"topology corpnet: 298 routers", "over 20 samples (190 pairs", "min=", "locality (p1/mean): "}},
		{"-topo gatech -scale 16 -samples 10 -seed 2", 0, []string{"topology gatech", "(45 pairs"}},
		{"-topo mercator -scale 64 -samples 10", 0, []string{"topology mercator", "metric="}},
		{"-topo ring", 2, []string{`unknown topology "ring"`}},
		{"-samples 1", 2, []string{"-samples must be >= 2"}},
		{"-no-such-flag", 2, []string{"flag provided but not defined"}},
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
