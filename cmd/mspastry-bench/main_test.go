package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"mspastry/internal/experiments"
)

// An unknown name must be refused before anything runs: a typo after
// `-experiment all`-sized waits used to cost the whole run.
func TestUnknownExperimentRunsNothing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "fig9"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	if stdout.Len() != 0 {
		t.Fatalf("something ran before the name was checked:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), `unknown experiment "fig9"`) {
		t.Fatalf("stderr does not name the bad experiment: %s", stderr.String())
	}
}

// The help text is derived from the registry, so it lists exactly it.
func TestHelpListsExactlyTheRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	m := regexp.MustCompile(`experiment: all, ([a-z0-9]+(?:, [a-z0-9]+)*)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no experiment list in the usage text:\n%s", stderr.String())
	}
	listed := strings.Split(m[1], ", ")
	if len(listed) != len(experiments.All) {
		t.Fatalf("usage lists %d experiments, the registry has %d", len(listed), len(experiments.All))
	}
	for i, e := range experiments.All {
		if listed[i] != e.Name {
			t.Errorf("usage entry %d is %q, registry entry is %q", i, listed[i], e.Name)
		}
	}
}

// One cheap registry entry end to end: tables, headlines, the paper line.
func TestRunPrintsAnExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "fig3", "-trace-div", "48", "-max-dur", "40m"}, &stdout, &stderr); code != 0 {
		t.Fatalf("fig3 exited %d: %s", code, stderr.String())
	}
	for _, want := range []string{"== Figure 3", "gnutella", "gnutella-failrate = ", "paper: ", "completed in"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, stdout.String())
		}
	}
}
