package mspastry

// The census, as tests, so it cannot rot. The rule (ROADMAP, "Diet"): code
// stays only while somebody uses it. A flag nobody passes and a Config
// field nobody assigns are constants that have not been written down yet;
// a package no command reaches and an exported function only tests call
// are deletions that have not been made yet.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mspastry/internal/dht"
	"mspastry/internal/harness"
	"mspastry/internal/hotspot"
	"mspastry/internal/pastry"
	"mspastry/internal/peer"
	"mspastry/internal/secure"
	"mspastry/internal/store"
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
// benchmark assigns, and exported functions that only tests call, with the
// reason each stays. A field is keyed "pkg.Config.Field", a method
// "pkg.Type.Method", a function "pkg.Func".
var keptForTest = map[string]string{
	"pastry.Config.PeerStrangerTTL": "internal/harness/leak_test.go shrinks it so a short run crosses the eviction horizon",
	"pastry.Config.PeerAdmittedTTL": "internal/harness/leak_test.go, likewise",
	"harness.Config.Topo":           "required input: the first argument of harness.DefaultConfig",
	"peer.Registry.Busy":            "internal/harness/leak_test.go classifies every registry record across packages",
	"peer.Record.Touched":           "internal/harness/leak_test.go, likewise",
	"pastry.Node.PeerMember":        "internal/harness/leak_test.go, likewise",
	"dht.Store.HasLocal":            "public façade API (mspastry.DHTStore) that Example_kvStore demonstrates",
	"eventsim.Event.Armed":          "internal/pastry's checkRecords asks whether a parked record's kept handle is pending",
}

// configTypes are the Config types whose fields the field rule checks;
// keptForTest keys under them are fields, every other key a function.
var configTypes = []reflect.Type{reflect.TypeOf(pastry.Config{}), reflect.TypeOf(harness.Config{})}

func isConfigKey(name string) bool {
	for _, typ := range configTypes {
		if strings.HasPrefix(name, typ.String()+".") {
			return true
		}
	}
	return false
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
	stale := make(map[string]bool) // keptForTest field entries naming no field
	for name := range keptForTest {
		if isConfigKey(name) {
			stale[name] = true
		}
	}
	for _, cfg := range []struct {
		typ     reflect.Type
		pkgDir  string
		imports *regexp.Regexp // the type is reachable through these
	}{
		// harness.Config.Pastry is a pastry.Config; the façade re-exports both.
		{configTypes[0], "internal/pastry", regexp.MustCompile(`"mspastry(/internal/(pastry|harness))?"`)},
		{configTypes[1], "internal/harness", regexp.MustCompile(`"mspastry(/internal/harness)?"`)},
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

// sourceFile is one parsed non-test Go file; path is slash-separated and
// relative to the repository root.
type sourceFile struct {
	path string
	file *ast.File
}

// sourceFiles parses every non-test Go file of the repository, bench/
// included, skipping testdata and hidden directories (.git, the
// benchmark's build cache).
func sourceFiles(t *testing.T) []sourceFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		files = append(files, sourceFile{filepath.ToSlash(p), f})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// testHelperPackage reports whether an internal package is a helper for
// tests, named like net/http/httptest: only _test.go files import it.
func testHelperPackage(dir string) bool { return strings.HasSuffix(dir, "test") }

// TestEveryPackageIsReachable fails for an internal package that no
// non-test file reachable by imports from a command (cmd/*) or the
// benchmark (bench/) imports. The façade mspastry.go is not a root: it
// re-exports, so an import there keeps nothing alive. Run with -v for the
// census: who imports each package.
func TestEveryPackageIsReachable(t *testing.T) {
	imports := make(map[string]map[string]bool) // directory -> repository directories it imports
	for _, f := range sourceFiles(t) {
		dir := path.Dir(f.path)
		if imports[dir] == nil {
			imports[dir] = make(map[string]bool)
		}
		for _, imp := range f.file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if p == "mspastry" {
				imports[dir]["."] = true
			} else if rel, ok := strings.CutPrefix(p, "mspastry/"); ok {
				imports[dir][rel] = true
			}
		}
	}
	var queue []string
	for dir := range imports {
		if strings.HasPrefix(dir, "cmd/") || dir == "bench" {
			queue = append(queue, dir)
		}
	}
	if len(queue) < 6 {
		t.Fatalf("found %d roots, want the five commands and bench/: %v", len(queue), queue)
	}
	reached := make(map[string]bool)
	importers := make(map[string][]string) // directory -> reached directories importing it
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		if reached[dir] {
			continue
		}
		reached[dir] = true
		for imp := range imports[dir] {
			importers[imp] = append(importers[imp], dir)
			queue = append(queue, imp)
		}
	}
	var internal []string
	for dir := range imports {
		if strings.HasPrefix(dir, "internal/") {
			internal = append(internal, dir)
		}
	}
	sort.Strings(internal)
	for _, dir := range internal {
		sort.Strings(importers[dir])
		t.Logf("%s: %s", dir, strings.Join(importers[dir], " "))
		if !reached[dir] && !testHelperPackage(dir) {
			t.Errorf("%s: no command and no benchmark reaches it by imports; delete it", dir)
		}
	}
}

// stdInterfaceMethods are methods a standard-library interface calls
// (fmt.Stringer, error, sort.Interface, container/heap, http.Handler), so
// their caller is outside the repository.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "ServeHTTP": true,
}

// TestEveryExportedFuncHasACaller fails for an exported function or method
// declared in a non-test file under internal/ that no non-test file
// (bench/ included) names outside a declaration: a function as any
// identifier, a method only as the selector of x.Method where x is not an
// imported package. It matches names, not types, so a name that collides
// with another passes: the rule can miss a dead function, never flag a
// live one. Run with -v for the census: who names each function.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	files := sourceFiles(t)
	namedIn := make(map[string][]string)    // identifier -> files naming it
	selectedIn := make(map[string][]string) // selector of x.M, x no package -> files
	for _, f := range files {
		imported := make(map[string]bool) // the file's names for its imports
		for _, imp := range f.file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if imp.Name != nil {
				imported[imp.Name.Name] = true
			} else {
				imported[path.Base(p)] = true
			}
		}
		named, selected := make(map[string]bool), make(map[string]bool)
		decl := make(map[*ast.Ident]bool) // the names of declared functions
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				decl[n.Name] = true
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); (!ok || !imported[x.Name]) && !selected[n.Sel.Name] {
					selected[n.Sel.Name] = true
					selectedIn[n.Sel.Name] = append(selectedIn[n.Sel.Name], f.path)
				}
			case *ast.Ident:
				if !decl[n] && !named[n.Name] {
					named[n.Name] = true
					namedIn[n.Name] = append(namedIn[n.Name], f.path)
				}
			}
			return true
		})
	}
	stale := make(map[string]bool) // keptForTest function entries naming no function
	for name := range keptForTest {
		if !isConfigKey(name) {
			stale[name] = true
		}
	}
	for _, f := range files {
		dir := path.Dir(f.path)
		if !strings.HasPrefix(dir, "internal/") || testHelperPackage(dir) {
			continue
		}
		for _, decl := range f.file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			name, callers := f.file.Name.Name+"."+fn.Name.Name, namedIn[fn.Name.Name]
			if fn.Recv != nil {
				if stdInterfaceMethods[fn.Name.Name] {
					continue
				}
				recv := strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*")
				name, callers = f.file.Name.Name+"."+recv+"."+fn.Name.Name, selectedIn[fn.Name.Name]
			}
			delete(stale, name)
			if len(callers) > 3 {
				callers = append(callers[:3:3], "...")
			}
			t.Logf("%s: %s", name, strings.Join(callers, " "))
			switch _, kept := keptForTest[name]; {
			case len(callers) == 0 && !kept:
				t.Errorf("%s: only tests call it; delete it, unexport it or list it in keptForTest", name)
			case len(callers) > 0 && kept:
				t.Errorf("%s is named outside tests now; drop it from keptForTest", name)
			}
		}
	}
	for name := range stale {
		t.Errorf("keptForTest lists %s, which does not exist", name)
	}
}

// tallies are the structs a live node exports field by field, as gauges,
// through telemetry.Registry.SetGauges.
var tallies = []reflect.Type{
	reflect.TypeOf(pastry.Counters{}), reflect.TypeOf(peer.Stats{}), reflect.TypeOf(dht.Counters{}),
	reflect.TypeOf(store.Stats{}), reflect.TypeOf(hotspot.Stats{}), reflect.TypeOf(secure.Counters{}),
}

// TestEveryTallyHasAMetric fails for an exported numeric field of one of
// the tallies without a metric tag, and, over every metric tag in non-test
// Go outside bench/ (the tallies and the Register handle structs alike),
// for one without a help tag and for a family name that two fields share:
// declaring a field is what exports it, under one name. A family is
// declared only by a tag, so it also fails for a non-test call outside
// internal/telemetry and bench/ that registers one by name, and for a
// string literal (a reader such as the node's status line) naming a family
// no tag declares. Run with -v for the census: each family's field.
func TestEveryTallyHasAMetric(t *testing.T) {
	for _, typ := range tallies {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if k := f.Type.Kind(); f.IsExported() && k >= reflect.Int && k <= reflect.Float64 && f.Tag.Get("metric") == "" {
				t.Errorf("%s.%s has no metric tag; name the gauge it is exported as", typ, f.Name)
			}
		}
	}
	owner := make(map[string]string) // family name -> the field whose tag declares it
	var literals []*ast.BasicLit
	var literalIn []string
	for _, f := range sourceFiles(t) {
		if strings.HasPrefix(f.path, "bench/") {
			continue
		}
		tags := make(map[*ast.BasicLit]bool)
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if n.Tag == nil {
					return true
				}
				tags[n.Tag] = true
				raw, _ := strconv.Unquote(n.Tag.Value)
				tag := reflect.StructTag(raw)
				name, ok := tag.Lookup("metric")
				if !ok {
					return true
				}
				field := f.path + ":" + types.ExprString(n.Type)
				if len(n.Names) > 0 {
					field = f.path + ":" + n.Names[0].Name
				}
				t.Logf("%s: %s", name, field)
				switch {
				case tag.Get("help") == "":
					t.Errorf("%s: metric %s has no help tag", field, name)
				case owner[name] != "":
					t.Errorf("%s and %s are both metric %s", owner[name], field, name)
				}
				owner[name] = field
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if ok && (sel.Sel.Name == "Histogram" || sel.Sel.Name == "Counter") && len(n.Args) > 0 &&
					!strings.HasPrefix(f.path, "internal/telemetry/") {
					t.Errorf("%s registers a family by name (%s); declare it as a Register tag", f.path, types.ExprString(n))
				}
			case *ast.BasicLit:
				if n.Kind == token.STRING && !tags[n] {
					literals, literalIn = append(literals, n), append(literalIn, f.path)
				}
			}
			return true
		})
	}
	family := regexp.MustCompile(`mspastry_[a-z0-9_]+`)
	for i, lit := range literals {
		for _, name := range family.FindAllString(lit.Value, -1) {
			if owner[name] == "" {
				t.Errorf("%s names family %s, which no metric tag declares", literalIn[i], name)
			}
		}
	}
}

// TestEveryTallyAddsEveryField fails for a field that a tally's Add leaves
// out or totals into another field, which would never total, or total
// wrongly, into harness.Result or an experiment's sum: with each exported
// numeric field of the argument set to its own value, two Adds into a zero
// tally must leave each field at twice that value. The node's, the store's
// and the secure layer's counters must have an Add.
func TestEveryTallyAddsEveryField(t *testing.T) {
	mustAdd := map[reflect.Type]bool{
		reflect.TypeOf(pastry.Counters{}): true, reflect.TypeOf(dht.Counters{}): true, reflect.TypeOf(secure.Counters{}): true,
	}
	for _, typ := range tallies {
		add, ok := reflect.PointerTo(typ).MethodByName("Add")
		if !ok {
			if mustAdd[typ] {
				t.Errorf("%s has no Add", typ)
			}
			continue
		}
		one, sum := reflect.New(typ).Elem(), reflect.New(typ)
		for i := 0; i < typ.NumField(); i++ {
			if f := one.Field(i); f.CanSet() {
				switch {
				case f.CanInt():
					f.SetInt(int64(i + 1))
				case f.CanUint():
					f.SetUint(uint64(i + 1))
				case f.CanFloat():
					f.SetFloat(float64(i + 1))
				}
			}
		}
		add.Func.Call([]reflect.Value{sum, one})
		add.Func.Call([]reflect.Value{sum, one})
		t.Logf("%s has an Add", typ)
		for i := 0; i < typ.NumField(); i++ {
			f, want := sum.Elem().Field(i), 2*(i+1)
			if !typ.Field(i).IsExported() {
				continue
			}
			if (f.CanInt() && f.Int() != int64(want)) || (f.CanUint() && f.Uint() != uint64(want)) ||
				(f.CanFloat() && f.Float() != float64(want)) {
				t.Errorf("%s.Add does not total %s: %v, want %d", typ, typ.Field(i).Name, f, want)
			}
		}
	}
}

// moduleImporter type-checks the repository's packages from their non-test
// files, recording what it finds in info, and the standard library from
// source, each package once.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // import path -> its non-test files
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	m.pkgs[path] = p
	return p, err
}

// TestOnlyAlarmSchedules fails when non-test code outside bench/ uses the
// pastry.Env method Schedule — on an Env, or on a type that implements
// Env — anywhere but Alarm.Arm, the one place that asks an Env for a new
// timer handle: every other arming is an Alarm's. The check reads types,
// not names, so eventsim.Simulator's Schedule, which queues a Handler on
// the engine, is another method and stays legal. bench/ is a module of
// its own, with Envs that wrap one.
func TestOnlyAlarmSchedules(t *testing.T) {
	build.Default.CgoEnabled = false // the pure-Go standard library type-checks without a C toolchain
	fset := token.NewFileSet()
	m := &moduleImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		files: make(map[string][]*ast.File),
		pkgs:  make(map[string]*types.Package),
		info:  &types.Info{Selections: make(map[*ast.SelectorExpr]*types.Selection)},
	}
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || p == "bench"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		importPath := path.Join("mspastry", filepath.ToSlash(filepath.Dir(p)))
		m.files[importPath] = append(m.files[importPath], f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for importPath := range m.files {
		if _, err := m.Import(importPath); err != nil {
			t.Fatal(err)
		}
	}
	env := m.pkgs["mspastry/internal/pastry"].Scope().Lookup("Env").Type().Underlying().(*types.Interface)
	for _, files := range m.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := fn.Name.Name
				if fn.Recv != nil {
					name = strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + "." + name
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					s := m.info.Selections[sel]
					if s == nil || s.Kind() == types.FieldVal || s.Obj().Name() != "Schedule" {
						return true
					}
					if r := s.Recv(); !types.Implements(r, env) && !types.Implements(types.NewPointer(r), env) {
						return true
					}
					at := fset.Position(sel.Pos())
					if f.Name.Name == "pastry" && name == "Alarm.Arm" {
						t.Logf("%s:%d: %s calls %s.Schedule", at.Filename, at.Line, name, s.Recv())
					} else {
						t.Errorf("%s:%d: %s uses %s.Schedule; arm a pastry.Alarm instead", at.Filename, at.Line, name, s.Recv())
					}
					return true
				})
			}
		}
	}
}

// syncAllowed names the packages that may import sync or sync/atomic, each
// with the state it shares across goroutines. Every other package runs on
// one node's event loop (the simulator's, or transport.UDP's, which Do and
// DoSync reach) and needs no lock.
var syncAllowed = map[string]string{
	"internal/telemetry": "the admin endpoint's HTTP goroutines read registries and tracers while the loop writes them, and the reader goroutine counts received messages",
	"internal/transport": "the reader goroutine hands datagrams to the event loop, and Do, DoSync and Close reach the loop from other goroutines",
	"internal/wire":      "its buffer pool is shared by every node's loop in the process",
}

// TestOnlySharedStateImportsSync fails for a non-test file that imports
// sync or sync/atomic outside the packages syncAllowed names. bench/ and
// examples/ are clients that drive nodes from goroutines of their own, and
// are not held to it.
func TestOnlySharedStateImportsSync(t *testing.T) {
	importing := make(map[string]bool)
	for _, f := range sourceFiles(t) {
		dir := path.Dir(f.path)
		if dir == "bench" || strings.HasPrefix(dir, "bench/") || strings.HasPrefix(dir, "examples/") {
			continue
		}
		for _, imp := range f.file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
				importing[dir] = true
				if _, ok := syncAllowed[dir]; !ok {
					t.Errorf("%s imports %s; code on a node's event loop needs no lock", f.path, p)
				}
			}
		}
	}
	for dir, why := range syncAllowed {
		t.Logf("%s: %s", dir, why)
		if !importing[dir] {
			t.Errorf("syncAllowed lists %s, which imports neither sync nor sync/atomic; drop it", dir)
		}
	}
}

// ownOverlay names the functions in internal/experiments that may build an
// overlay of their own, with the reason each cannot run through
// harness.Run.
var ownOverlay = map[string]string{
	"squirrelValidation": "the simulator half is the shape twin of a live UDP run that counts every message from the first join; harness.Run's measured window leaves the join ramp out",
	"massFailureRun":     "through harness.Run's join ramp, TestMassFailureRecovery's pinned seeds miss the 2-minute bound (3 of 16), a protocol defect the NewCluster overlay hits at other seeds (CHANGES.md)",
}

// TestExperimentsBuildNoOverlay fails for non-test code in
// internal/experiments that builds a simulated overlay of its own, by
// eventsim.New or NewCluster, outside the functions ownOverlay lists: an
// experiment runs through harness.Run, which gives it the ring oracle,
// fault scripts, telemetry names and the accounting check, and mounts
// its application layer with a harness.App.
func TestExperimentsBuildNoOverlay(t *testing.T) {
	builds := make(map[string]bool) // ownOverlay entries that do build one
	for _, f := range sourceFiles(t) {
		if path.Dir(f.path) != "internal/experiments" {
			continue
		}
		for _, decl := range f.file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, _ := sel.X.(*ast.Ident)
				if sel.Sel.Name != "NewCluster" && (pkg == nil || pkg.Name != "eventsim" || sel.Sel.Name != "New") {
					return true
				}
				if _, ok := ownOverlay[fn.Name.Name]; ok {
					builds[fn.Name.Name] = true
					t.Logf("%s: %s calls %s", f.path, fn.Name.Name, types.ExprString(sel))
				} else {
					t.Errorf("%s: %s calls %s; run it through harness.Run with a harness.App", f.path, fn.Name.Name, types.ExprString(sel))
				}
				return true
			})
		}
	}
	for name := range ownOverlay {
		if !builds[name] {
			t.Errorf("ownOverlay lists %s, which builds no overlay; drop it", name)
		}
	}
}
