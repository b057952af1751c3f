package mspastry

// The option census, as tests, so it cannot rot. The rule (ROADMAP, "Diet"):
// an option stays only while somebody gives it a value. A flag nobody
// passes and a Config field nobody assigns are constants that have not
// been written down yet.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mspastry/internal/harness"
	"mspastry/internal/pastry"
)

// commandFlags returns the names a command defines on its private FlagSet
// (the `fs` every cmd/*/main.go builds in run), read off the source: the
// commands are package main, so a test cannot call them.
func commandFlags(t *testing.T, mainGo string) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), mainGo, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv, _ := sel.X.(*ast.Ident)
		kind := strings.TrimSuffix(sel.Sel.Name, "Var")
		switch kind {
		case "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration", "String":
		default:
			return true
		}
		if recv == nil || (recv.Name != "fs" && recv.Name != "flag") {
			return true
		}
		if recv.Name == "flag" {
			t.Errorf("%s defines a flag on the process-wide FlagSet; define it on run's fs", mainGo)
			return true
		}
		arg := 0
		if kind != sel.Sel.Name {
			arg = 1 // fs.IntVar(&x, "name", ...)
		}
		name, err := strconv.Unquote(call.Args[arg].(*ast.BasicLit).Value)
		if err != nil {
			t.Fatalf("%s: flag name is not a string literal: %v", mainGo, err)
		}
		names = append(names, name)
		return true
	})
	return names
}

// commandLines returns, for each of the named files, the lines that invoke
// cmd (with their backslash continuations). A shell variable holding the
// binary counts by its name: "$mspastry_node", $MSPASTRY_NODE_BIN.
func commandLines(t *testing.T, cmd string, files []string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		continued := false
		for _, line := range strings.Split(string(b), "\n") {
			norm := strings.ReplaceAll(strings.ToLower(line), "_", "-")
			if continued || strings.Contains(norm, cmd) {
				out[f] += line + "\n"
				continued = strings.HasSuffix(strings.TrimRight(line, " "), `\`)
			}
		}
	}
	return out
}

func glob(t *testing.T, patterns ...string) []string {
	t.Helper()
	var files []string
	for _, p := range patterns {
		m, err := filepath.Glob(p)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	return files
}

// TestEveryFlagHasACaller fails for a command-line flag that no command
// line in the documents, the CI and nightly workflows or scripts/ passes
// and the command's own tests never set. Run with -v for the census: who
// passes each flag.
func TestEveryFlagHasACaller(t *testing.T) {
	docs := glob(t, "README.md", "EXPERIMENTS.md", "DESIGN.md", ".github/workflows/*.yml", "scripts/*")
	mains := glob(t, "cmd/*/main.go")
	if len(mains) < 5 {
		t.Fatalf("found %d commands, want at least 5: %v", len(mains), mains)
	}
	for _, mainGo := range mains {
		dir := filepath.Dir(mainGo)
		cmd := filepath.Base(dir)
		flags := commandFlags(t, mainGo)
		if len(flags) == 0 {
			t.Errorf("%s: no flags found on fs; the census walks run's private FlagSet", cmd)
		}
		texts := commandLines(t, cmd, docs)
		for _, f := range glob(t, dir+"/*_test.go") {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			texts[f] = string(b)
		}
		for _, name := range flags {
			// The flag as a command-line word: after a space or an opening
			// quote, before a space, a closing quote or the end of line.
			passed := regexp.MustCompile(`(?m)[\s"]-` + regexp.QuoteMeta(name) + `(?:[\s"=]|$)`)
			var callers []string
			for f, text := range texts {
				if passed.MatchString(text) {
					callers = append(callers, f)
				}
			}
			sort.Strings(callers)
			t.Logf("%s -%s: %s", cmd, name, strings.Join(callers, " "))
			if len(callers) == 0 {
				t.Errorf("%s -%s: no command line in %v and no test in %s passes it; make it a constant",
					cmd, name, docs, dir)
			}
		}
	}
}

// keptForTest are exported Config fields that no command, experiment or
// benchmark assigns, with the reason each stays a field.
var keptForTest = map[string]string{
	"pastry.Config.PeerStrangerTTL": "internal/harness/leak_test.go shrinks it so a short run crosses the eviction horizon",
	"pastry.Config.PeerAdmittedTTL": "internal/harness/leak_test.go, likewise",
	"harness.Config.Topo":           "required input: the first argument of harness.DefaultConfig",
}

// TestEveryConfigFieldHasACaller fails for an exported field of
// pastry.Config or harness.Config that no non-test Go file outside the
// field's own package (bench/ included) assigns. An assignment is
// `.Field =`, `.Field op=` or a `Field:` literal key in a package that can
// name the type — a grep, as the rule is grep-backed.
func TestEveryConfigFieldHasACaller(t *testing.T) {
	byDir := make(map[string]string) // directory -> its non-test Go source
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		b, err := os.ReadFile(path)
		byDir[filepath.ToSlash(filepath.Dir(path))] += string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	stale := make(map[string]bool) // keptForTest entries naming no field
	for name := range keptForTest {
		stale[name] = true
	}
	for _, cfg := range []struct {
		typ     reflect.Type
		pkgDir  string
		imports *regexp.Regexp // the type is reachable through these
	}{
		// harness.Config.Pastry is a pastry.Config; the façade re-exports both.
		{reflect.TypeOf(pastry.Config{}), "internal/pastry", regexp.MustCompile(`"mspastry(/internal/(pastry|harness))?"`)},
		{reflect.TypeOf(harness.Config{}), "internal/harness", regexp.MustCompile(`"mspastry(/internal/harness)?"`)},
	} {
		var importers []string
		for dir, src := range byDir {
			if dir != cfg.pkgDir && cfg.imports.MatchString(src) {
				importers = append(importers, src)
			}
		}
		for i := 0; i < cfg.typ.NumField(); i++ {
			f := cfg.typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name := cfg.typ.String() + "." + f.Name
			delete(stale, name)
			assigned := regexp.MustCompile(`\.` + f.Name + `\s*[-+*/]?=[^=]|\b` + f.Name + `:\s`)
			found := false
			for _, src := range importers {
				if assigned.MatchString(src) {
					found = true
					break
				}
			}
			switch _, kept := keptForTest[name]; {
			case !found && !kept:
				t.Errorf("%s: no command, experiment or benchmark assigns it; make it a constant", name)
			case found && kept:
				t.Errorf("%s is assigned outside its package now; drop it from keptForTest", name)
			}
		}
	}
	for name := range stale {
		t.Errorf("keptForTest lists %s, which does not exist", name)
	}
}
