package pastry

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mspastry/internal/id"
)

// The census of the node's input surface, as a test so it cannot rot. A
// node has two: Receive dispatches each message type to its rule, and fire
// dispatches each kind of timer to its rule. The pairs (timer kind → rule
// method, message type → rule method) are the alphabet a step of the node
// is named by; run with -v to print it.

// packageSource parses the package's non-test files.
func packageSource(t *testing.T) []*ast.File {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["pastry"].Files {
		files = append(files, f)
	}
	return files
}

// nodeMethods returns the declarations of the methods on *Node by name.
func nodeMethods(files []*ast.File) map[string]*ast.FuncDecl {
	methods := make(map[string]*ast.FuncDecl)
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && id.Name == "Node" {
					methods[fn.Name.Name] = fn
				}
			}
		}
	}
	return methods
}

// ruleCall returns the method a case body calls, if the body is exactly one
// call of a method on the node.
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
	if !ok {
		return "", false
	}
	if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "n" || methods[sel.Sel.Name] == nil {
		return "", false
	}
	return sel.Sel.Name, true
}

// switchCases returns the clauses of fn's top-level switch, keyed by the
// source text of each case expression.
func switchCases(t *testing.T, fn *ast.FuncDecl) map[string][]ast.Stmt {
	t.Helper()
	for _, st := range fn.Body.List {
		var body *ast.BlockStmt
		switch s := st.(type) {
		case *ast.SwitchStmt:
			body = s.Body
		case *ast.TypeSwitchStmt:
			body = s.Body
		default:
			continue
		}
		cases := make(map[string][]ast.Stmt)
		for _, c := range body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				cases[exprString(e)] = cc.Body
			}
		}
		return cases
	}
	t.Fatalf("%s has no switch", fn.Name.Name)
	return nil
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	}
	return ""
}

// TestEveryTimerIsArmedOnceAndFiredByItsRule fails when a call of
// Env.Schedule appears outside Alarm.Arm, or when a timer kind has no rule name
// or no case in fire that is one call of that rule.
func TestEveryTimerIsArmedOnceAndFiredByItsRule(t *testing.T) {
	files := packageSource(t)
	methods := nodeMethods(files)
	var schedules []string
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(nd ast.Node) bool {
				if call, ok := nd.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Schedule" {
						schedules = append(schedules, fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	if len(schedules) != 1 || schedules[0] != "Arm" {
		t.Errorf("Env.Schedule is called from %v; Alarm.Arm must be its one caller", schedules)
	}

	// timerRules' keyed literal ties each kind's identifier to its rule.
	type entry struct{ kind, rule string }
	var rules []entry
	for _, f := range files {
		ast.Inspect(f, func(nd ast.Node) bool {
			vs, ok := nd.(*ast.ValueSpec)
			if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "timerRules" {
				return true
			}
			for _, e := range vs.Values[0].(*ast.CompositeLit).Elts {
				kv := e.(*ast.KeyValueExpr)
				name, err := strconv.Unquote(kv.Value.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				rules = append(rules, entry{exprString(kv.Key), name})
			}
			return false
		})
	}
	for k := timerKind(0); k < timerKinds; k++ {
		if k.String() == "" {
			t.Errorf("timer kind %d has no rule name in timerRules", k)
		}
	}
	if len(rules) != int(timerKinds) {
		t.Errorf("timerRules names %d kinds, want %d", len(rules), timerKinds)
	}
	cases := switchCases(t, methods["fire"])
	for _, e := range rules {
		called, ok := ruleCall(cases[e.kind], methods)
		switch {
		case cases[e.kind] == nil:
			t.Errorf("fire has no case for %s", e.kind)
		case !ok || called != e.rule:
			t.Errorf("fire's case %s must be one call of n.%s", e.kind, e.rule)
		default:
			t.Logf("timer %s → %s", e.kind, e.rule)
		}
		delete(cases, e.kind)
	}
	for kind := range cases {
		t.Errorf("fire has a case for %s, which timerRules does not name", kind)
	}
}

// TestEveryMessageHasARule fails when a message type the codec decodes has
// no case in Receive that is one call of a rule method, when Receive notes
// contact other than once, or when a message that names its sender does not
// tell Receive who it is.
func TestEveryMessageHasARule(t *testing.T) {
	methods := nodeMethods(packageSource(t))
	receive := methods["Receive"]
	notes := 0
	ast.Inspect(receive.Body, func(nd ast.Node) bool {
		if sel, ok := nd.(*ast.SelectorExpr); ok && sel.Sel.Name == "noteContact" {
			notes++
		}
		return true
	})
	if notes != 1 {
		t.Errorf("Receive calls noteContact %d times, want once, before dispatch", notes)
	}
	cases := switchCases(t, receive)
	for tag, mk := range newMessage {
		if mk == nil {
			continue
		}
		m := mk()
		typ := reflect.TypeOf(m).Elem()
		rule, ok := ruleCall(cases["*"+typ.Name()], methods)
		if !ok {
			t.Errorf("tag %d: Receive has no case for %s that is one call of a rule method", tag, typ.Name())
			continue
		}
		_, named := typ.FieldByName("From")
		if _, tells := m.(contact); named != tells {
			t.Errorf("%s: has a From field %v, tells Receive its sender %v", typ.Name(), named, tells)
		}
		t.Logf("message %s → %s", typ.Name(), rule)
	}
}

// callCounter counts every call a node makes to its observer, extensions
// included.
type callCounter struct{ calls int }

func (c *callCounter) Activated(*Node, time.Duration)              { c.calls++ }
func (c *callCounter) Delivered(*Node, *Lookup)                    { c.calls++ }
func (c *callCounter) LookupDropped(*Node, *Lookup, DropReason)    { c.calls++ }
func (c *callCounter) LookupIssued(*Node, *Lookup)                 { c.calls++ }
func (c *callCounter) LookupHop(*Node, *Lookup, NodeRef, HopCause) { c.calls++ }
func (c *callCounter) MessageSent(*Node, Category, bool)           { c.calls++ }
func (c *callCounter) AckRTT(*Node, NodeRef, time.Duration)        { c.calls++ }
func (c *callCounter) TrtTuned(*Node, time.Duration)               { c.calls++ }
func (c *callCounter) LeafSetRepair(*Node, string)                 { c.calls++ }

// TestCrashedNodeRunsNoRule drives one node until it has armed a timer of
// every kind — a PNS join, a distance measurement, a suspect, a paced
// repair, a lookup not yet routed — crashes it with timers
// of several kinds still due, and runs an hour: the node must send nothing
// and tell its observer nothing. Fail cancels some of its timers; the rest
// come due and meet fire's liveness guard.
func TestCrashedNodeRunsNoRule(t *testing.T) {
	cfg := testConfig()
	cfg.PNS = true
	net := newTestNet(t, 3)
	nodes := buildOverlay(t, net, 8, cfg)
	obs := &callCounter{}
	x := net.addNode(id.Random(rand.New(rand.NewSource(3))), cfg, obs)
	x.Join(nodes[0].Ref())
	for step := 0; step < 200 && !x.Active(); step++ {
		net.run(100 * time.Millisecond)
	}
	x.Lookup(nodes[1].Ref().ID, nil)
	net.run(0)
	leaf := x.ls.Members()[0]
	x.suspect(leaf)
	x.repairProbe(leaf, "test")
	x.repairProbe(leaf, "test") // paced out: arms the retry
	x.measureDistance(nodes[2].Ref(), distProbeCount, nil)
	x.Lookup(nodes[3].Ref().ID, nil)

	hop, probe, dist := false, false, false
	for _, ph := range x.pending {
		hop = hop || ph.run != nil
	}
	for _, ps := range x.probing {
		probe = probe || ps.run != nil
	}
	for _, ds := range x.distSessions {
		dist = dist || ds.sample[0].run != nil && ds.deadline.run != nil
	}
	for k, armed := range [timerKinds]bool{
		timerTick:         x.tickAlarm.run != nil,
		timerHop:          hop,
		timerProbe:        probe,
		timerRepairRetry:  x.repairAlarm.timer != nil,
		timerJoinRetry:    x.joinAlarm.run != nil,
		timerNNGiveUp:     x.nnAlarm.run != nil,
		timerDistProbe:    dist,
		timerDistDeadline: dist,
		timerIssued:       len(x.issued) > x.issuedHead,
	} {
		if !armed {
			t.Errorf("the node never armed a %s timer", timerKind(k))
		}
	}
	if since := x.Now() - x.joinStart; since >= joinRetryAfter {
		t.Errorf("the join watchdog is no longer due at the crash: the join began %v ago", since)
	}

	x.Fail()
	obs.calls = 0 // Fail reports the lookup not routed yet; no rule does
	sends := 0
	net.drop = func(from, _ NodeRef, _ Message) bool {
		if from == x.Ref() {
			sends++
		}
		return false
	}
	net.run(time.Hour)
	if sends != 0 || obs.calls != 0 {
		t.Fatalf("the crashed node sent %d messages and made %d observer calls", sends, obs.calls)
	}
}
