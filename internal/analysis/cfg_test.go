package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src as the body of a function declaration and returns
// its block.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return file.Decls[0].(*ast.FuncDecl).Body
}

// traceFlow is a FlowState recording the expression statements a path
// executed, as call names, in order.
type traceFlow struct {
	steps []string
}

func (s *traceFlow) CloneFlow() FlowState {
	return &traceFlow{steps: append([]string(nil), s.steps...)}
}

func (s *traceFlow) JoinFlow(other FlowState) bool { return false }

// runTrace interprets body and returns the traces observed at exit (one
// per AtExit invocation), each rendered "a,b,c".
func runTrace(t *testing.T, body *ast.BlockStmt, opt CFGOptions) []string {
	t.Helper()
	cfg := BuildCFG(body, opt)
	var exits []string
	fa := &FlowAnalysis{
		Entry: &traceFlow{},
		Transfer: func(s FlowState, n ast.Node) {
			tr := s.(*traceFlow)
			switch x := n.(type) {
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok {
					tr.steps = append(tr.steps, exprName(call.Fun))
				}
			case *ast.CallExpr: // replayed defer
				tr.steps = append(tr.steps, exprName(x.Fun))
			}
		},
		AtExit: func(s FlowState) {
			exits = append(exits, strings.Join(s.(*traceFlow).steps, ","))
		},
	}
	fa.Run(cfg)
	return exits
}

func exprName(e ast.Expr) string {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

func TestCFGStraightLine(t *testing.T) {
	exits := runTrace(t, parseBody(t, "a(); b()"), CFGOptions{})
	if len(exits) != 1 || exits[0] != "a,b" {
		t.Fatalf("exits = %q, want [a,b]", exits)
	}
}

// reachFlow tracks which calls may have executed and which must have
// executed on every path into the current point; JoinFlow is union on
// may and intersection on must, the textbook join pair. This is the
// semantics the analyzers consume: a leak is "must still own at exit",
// a maybe-leak is "may own at exit".
type reachFlow struct {
	may  map[string]bool
	must map[string]bool
}

func newReachFlow() *reachFlow {
	return &reachFlow{may: map[string]bool{}, must: map[string]bool{}}
}

func (s *reachFlow) CloneFlow() FlowState {
	c := newReachFlow()
	for k := range s.may {
		c.may[k] = true
	}
	for k := range s.must {
		c.must[k] = true
	}
	return c
}

func (s *reachFlow) JoinFlow(other FlowState) bool {
	o := other.(*reachFlow)
	changed := false
	for k := range o.may {
		if !s.may[k] {
			s.may[k] = true
			changed = true
		}
	}
	for k := range s.must {
		if !o.must[k] {
			delete(s.must, k)
			changed = true
		}
	}
	return changed
}

func (s *reachFlow) mark(name string) {
	s.may[name] = true
	s.must[name] = true
}

// runReach interprets body and returns the may/must call sets at exit
// (the fixpoint: the last AtExit invocation wins).
func runReach(t *testing.T, body *ast.BlockStmt, opt CFGOptions) (may, must map[string]bool) {
	t.Helper()
	cfg := BuildCFG(body, opt)
	fa := &FlowAnalysis{
		Entry: newReachFlow(),
		Transfer: func(s FlowState, n ast.Node) {
			r := s.(*reachFlow)
			switch x := n.(type) {
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok {
					r.mark(exprName(call.Fun))
				}
			case *ast.CallExpr: // replayed defer
				r.mark(exprName(x.Fun))
			}
		},
		AtExit: func(s FlowState) {
			r := s.(*reachFlow)
			may, must = r.may, r.must
		},
	}
	fa.Run(cfg)
	if may == nil {
		t.Fatal("AtExit never ran")
	}
	return may, must
}

// TestCFGBranchMayMust pins the join at merge points: a() dominates the
// exit, b() (behind the early return) and c() (behind the fallthrough)
// are both reachable but neither is guaranteed.
func TestCFGBranchMayMust(t *testing.T) {
	may, must := runReach(t, parseBody(t, `
		a()
		if cond {
			b()
			return
		}
		c()`), CFGOptions{})
	if !must["a"] || must["b"] || must["c"] {
		t.Errorf("must = %v, want exactly {a}", must)
	}
	if !may["b"] || !may["c"] {
		t.Errorf("may = %v, want b and c included", may)
	}
}

func TestCFGDefersReplayLIFO(t *testing.T) {
	exits := runTrace(t, parseBody(t, "defer a(); defer b(); c()"), CFGOptions{})
	if len(exits) != 1 || exits[0] != "c,b,a" {
		t.Fatalf("exits = %q, want [c,b,a]: defers replay LIFO at exit", exits)
	}
}

// TestCFGDeferOnEveryReturn pins that a defer registered before a
// branch takes effect on both the early return and the fallthrough
// path: it is in the must set while the conditional calls are not.
func TestCFGDeferOnEveryReturn(t *testing.T) {
	may, must := runReach(t, parseBody(t, `
		defer a()
		if cond {
			b()
			return
		}
		c()`), CFGOptions{})
	if !must["a"] {
		t.Errorf("must = %v, want the deferred a on every path", must)
	}
	if must["b"] || must["c"] {
		t.Errorf("must = %v, conditional calls must not dominate exit", must)
	}
	if !may["b"] || !may["c"] {
		t.Errorf("may = %v, want b and c reachable", may)
	}
}

// TestCFGLoopBodyConditional pins the 0-or-1-iteration loop model: a
// loop body may execute but is never guaranteed to.
func TestCFGLoopBodyConditional(t *testing.T) {
	may, must := runReach(t, parseBody(t, "for i := 0; i < n; i++ { a() }; b()"), CFGOptions{})
	if !may["a"] || must["a"] {
		t.Errorf("loop body: may[a]=%v must[a]=%v, want may-only", may["a"], must["a"])
	}
	if !must["b"] {
		t.Errorf("must = %v, want b after the loop on every path", must)
	}
}

// TestCFGNoReturnTerminates pins that recognized no-return calls end the
// path: nothing after os.Exit-style calls reaches exit.
func TestCFGNoReturnTerminates(t *testing.T) {
	body := parseBody(t, `
		if cond {
			die()
			a()
		}
		b()`)
	noReturn := func(call *ast.CallExpr) bool { return exprName(call.Fun) == "die" }
	exits := runTrace(t, body, CFGOptions{NoReturn: noReturn})
	if len(exits) != 1 || exits[0] != "b" {
		t.Fatalf("exits = %q, want only [b]: the die() path never returns", exits)
	}
}

// TestCFGPanicTerminates pins the same for the panic builtin.
func TestCFGPanicTerminates(t *testing.T) {
	body := parseBody(t, `
		if cond {
			panic("boom")
		}
		b()`)
	exits := runTrace(t, body, CFGOptions{})
	if len(exits) != 1 || exits[0] != "b" {
		t.Fatalf("exits = %q, want only [b]: the panic path never returns", exits)
	}
}

// TestCFGSwitchPaths pins that every case body (and the implicit
// no-match path when there is no default) flows to the statement after
// the switch: the cases are reachable but optional, the tail dominates.
func TestCFGSwitchPaths(t *testing.T) {
	may, must := runReach(t, parseBody(t, `
		switch x {
		case 1:
			a()
		case 2:
			b()
		}
		c()`), CFGOptions{})
	if !may["a"] || !may["b"] {
		t.Errorf("may = %v, want both case bodies reachable", may)
	}
	if must["a"] || must["b"] {
		t.Errorf("must = %v, case bodies must not dominate exit (no default)", must)
	}
	if !must["c"] {
		t.Errorf("must = %v, want c after the switch on every path", must)
	}
}

// TestCFGBranchCallback pins that edge conditions reach the Branch hook
// with the right polarity.
func TestCFGBranchCallback(t *testing.T) {
	body := parseBody(t, `
		if err != nil {
			a()
		}
		b()`)
	cfg := BuildCFG(body, CFGOptions{})
	var seen []bool
	fa := &FlowAnalysis{
		Entry:    &traceFlow{},
		Transfer: func(FlowState, ast.Node) {},
		Branch: func(_ FlowState, cond ast.Expr, taken bool) {
			if _, ok := cond.(*ast.BinaryExpr); ok {
				seen = append(seen, taken)
			}
		},
		AtExit: func(FlowState) {},
	}
	fa.Run(cfg)
	hasTrue, hasFalse := false, false
	for _, tk := range seen {
		if tk {
			hasTrue = true
		} else {
			hasFalse = true
		}
	}
	if !hasTrue || !hasFalse {
		t.Fatalf("Branch saw taken=%v, want both polarities", seen)
	}
}
