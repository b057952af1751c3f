package dht

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// The census of the store's input surface, as a test so it cannot rot, in
// the shape of the node's (internal/pastry/inputs_test.go). A store has
// three dispatch points: Deliver runs each request kind's rule, Direct each
// direct message kind's, and fire each timer kind's. The pairs (kind →
// rule method) are the alphabet a step of the store is named by; run with
// -v to print it.

// parseDir parses the non-test files of the package in dir.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range pkgs {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	return files
}

// exprString renders a case expression or constant name: kindPut, or a
// qualified one such as pastry.CatApp.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return ""
}

// consts returns the names of the constants declared in the const blocks
// of files whose first constant keep accepts, blank ones left out.
func consts(files []*ast.File, keep func(first *ast.ValueSpec) bool) []string {
	var names []string
	for _, f := range files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || !keep(gd.Specs[0].(*ast.ValueSpec)) {
				continue
			}
			for _, sp := range gd.Specs {
				for _, n := range sp.(*ast.ValueSpec).Names {
					if n.Name != "_" {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	return names
}

// storeMethods returns the declarations of the methods on *Store by name.
func storeMethods(files []*ast.File) map[string]*ast.FuncDecl {
	methods := make(map[string]*ast.FuncDecl)
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok && exprString(star.X) == "Store" {
				methods[fn.Name.Name] = fn
			}
		}
	}
	return methods
}

// switchCases returns the clauses of fn's top-level switch, keyed by the
// source text of each case expression, and "default" for a default clause.
func switchCases(t *testing.T, fn *ast.FuncDecl) map[string][]ast.Stmt {
	t.Helper()
	for _, st := range fn.Body.List {
		if sw, ok := st.(*ast.SwitchStmt); ok {
			cases := make(map[string][]ast.Stmt)
			for _, c := range sw.Body.List {
				cc := c.(*ast.CaseClause)
				if cc.List == nil {
					cases["default"] = cc.Body
				}
				for _, e := range cc.List {
					cases[exprString(e)] = cc.Body
				}
			}
			return cases
		}
	}
	t.Fatalf("%s has no switch", fn.Name.Name)
	return nil
}

// ruleCall returns the method a case body calls, if the body is exactly one
// call of a method on the store.
func ruleCall(body []ast.Stmt, methods map[string]*ast.FuncDecl) (string, bool) {
	if len(body) != 1 {
		return "", false
	}
	stmt, ok := body[0].(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || exprString(sel.X) != "s" || methods[sel.Sel.Name] == nil {
		return "", false
	}
	return sel.Sel.Name, true
}

// wireKinds returns the names of the dht's wire kinds: the constants of
// the const blocks that open with a kind.
func wireKinds(t *testing.T) []string {
	return consts(parseDir(t, "."), func(vs *ast.ValueSpec) bool { return strings.HasPrefix(vs.Names[0].Name, "kind") })
}

// TestEveryInputHasARule fails when a timer kind has no case in fire, when
// one of the dht's wire kinds has no case in Deliver or Direct or a case
// in both, when a case is not one call of a rule method, or when a switch
// has a case for something else. The layers over
// the node arm their timers through pastry.Alarm, as the node does; the
// repository's TestOnlyAlarmSchedules fails on any other Env.Schedule.
func TestEveryInputHasARule(t *testing.T) {
	files := parseDir(t, ".")
	methods := storeMethods(files)

	timers := consts(files, func(vs *ast.ValueSpec) bool { return exprString(vs.Type) == "timerKind" })
	kinds := wireKinds(t)
	if len(timers) == 0 || len(kinds) == 0 {
		t.Fatalf("found %d timer kinds and %d wire kinds", len(timers), len(kinds))
	}

	check := func(input string, names []string, dispatchers ...string) {
		cases := make(map[string]map[string][]ast.Stmt)
		for _, d := range dispatchers {
			cases[d] = switchCases(t, methods[d])
		}
		for _, name := range names {
			var in []string
			for _, d := range dispatchers {
				body, ok := cases[d][name]
				if !ok {
					continue
				}
				in = append(in, d)
				delete(cases[d], name)
				if rule, ok := ruleCall(body, methods); ok {
					t.Logf("%s %s → %s: %s", input, name, d, rule)
				} else {
					t.Errorf("%s's case %s must be one call of a rule method", d, name)
				}
			}
			if len(in) != 1 {
				t.Errorf("%s %s has a case in %v, want in one of %v", input, name, in, dispatchers)
			}
		}
		for _, d := range dispatchers {
			for name := range cases[d] {
				t.Errorf("%s has a case for %s, which is no %s", d, name, input)
			}
		}
	}
	check("timer", timers, "fire")
	check("kind", kinds, "Deliver", "Direct")

}
