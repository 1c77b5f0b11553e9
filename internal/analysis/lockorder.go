package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// lockorder enforces release discipline at every sync.Mutex/RWMutex
// Lock/Unlock site it can see intra-procedurally:
//
//   - no lock is acquired twice without an intervening release;
//   - every lock acquired in a function is released on every path to
//     return, counting deferred unlocks at their exit-time effect.
//
// Lock identity is a canonical (root variable, selector path) pair, so
// p.mu and p.stats.mu are distinct locks. An index expression
// canonicalizes its varying step to "[]", so regs[i].mu and regs[j].mu
// share one key.

// LockOrder is the lock-discipline analyzer.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "check mutex discipline in the concurrency packages: no " +
		"double-lock, and every Lock released on all paths to return " +
		"(suppress with //paylint:lockorder <reason>)",
	Run: runLockOrder,
}

// mutexOps maps the sync callee keys to an operation and whether it is a
// read-side operation (tracked under a separate key variant).
var mutexOps = map[string]struct {
	acquire bool
	read    bool
}{
	"sync.(Mutex).Lock":      {acquire: true},
	"sync.(Mutex).Unlock":    {},
	"sync.(RWMutex).Lock":    {acquire: true},
	"sync.(RWMutex).Unlock":  {},
	"sync.(RWMutex).RLock":   {acquire: true, read: true},
	"sync.(RWMutex).RUnlock": {read: true},
}

// lockKey identifies one lock: the root variable plus the selector path
// from it, with index steps canonicalized to "[]".
type lockKey struct {
	root types.Object
	path string
}

type lockStatus uint8

const (
	lockHeld lockStatus = iota
	lockMaybe
)

// heldLock is one tracked acquisition.
type heldLock struct {
	status lockStatus
	disp   string   // display form for diagnostics
	node   ast.Node // the Lock call: report anchor + directive site
}

// lockState is the FlowState: locks currently (or maybe) held.
type lockState struct {
	locks map[lockKey]heldLock
}

func (s *lockState) CloneFlow() FlowState {
	c := &lockState{locks: make(map[lockKey]heldLock, len(s.locks))}
	for k, v := range s.locks {
		c.locks[k] = v
	}
	return c
}

func (s *lockState) JoinFlow(other FlowState) bool {
	o := other.(*lockState)
	changed := false
	for k, ov := range o.locks {
		mv, ok := s.locks[k]
		if !ok {
			ov.status = lockMaybe
			s.locks[k] = ov
			changed = true
			continue
		}
		if mv.status != ov.status && mv.status != lockMaybe {
			mv.status = lockMaybe
			s.locks[k] = mv
			changed = true
		}
	}
	for k, mv := range s.locks {
		if _, ok := o.locks[k]; !ok && mv.status != lockMaybe {
			mv.status = lockMaybe
			s.locks[k] = mv
			changed = true
		}
	}
	return changed
}

// lockRunner carries per-function interpretation context.
type lockRunner struct {
	pass     *Pass
	reported map[string]bool
}

func runLockOrder(pass *Pass) error {
	if !isConcurrencyPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			analyzeLockBody(pass, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					analyzeLockBody(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

func analyzeLockBody(pass *Pass, body *ast.BlockStmt) {
	r := &lockRunner{pass: pass, reported: map[string]bool{}}
	cfg := BuildCFG(body, CFGOptions{NoReturn: noReturnCall(pass)})
	fa := &FlowAnalysis{
		Entry:    &lockState{locks: map[lockKey]heldLock{}},
		Transfer: func(s FlowState, n ast.Node) { r.transfer(s.(*lockState), n) },
		AtExit:   func(s FlowState) { r.atExit(s.(*lockState)) },
	}
	fa.Run(cfg)
}

// mutexCall classifies a call against mutexOps, returning the op key and
// the receiver (mutex) expression.
func (r *lockRunner) mutexCall(call *ast.CallExpr) (op string, recv ast.Expr, ok bool) {
	key := funcKey(calleeFunc(r.pass.TypesInfo, call))
	if _, known := mutexOps[key]; !known {
		return "", nil, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	return key, sel.X, true
}

// canon canonicalizes a lock expression to (root variable, path).
func (r *lockRunner) canon(e ast.Expr) (types.Object, string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := r.pass.TypesInfo.ObjectOf(x)
		if obj == nil {
			return nil, "", false
		}
		return obj, "", true
	case *ast.SelectorExpr:
		root, path, ok := r.canon(x.X)
		if !ok {
			return nil, "", false
		}
		return root, path + "." + x.Sel.Name, true
	case *ast.IndexExpr:
		root, path, ok := r.canon(x.X)
		if !ok {
			return nil, "", false
		}
		return root, path + "[]", true
	case *ast.StarExpr:
		return r.canon(x.X)
	case *ast.UnaryExpr:
		return r.canon(x.X)
	}
	return nil, "", false
}

func (r *lockRunner) report(node ast.Node, format string, args ...any) {
	if r.pass.Suppressed(node, "lockorder") {
		return
	}
	msg := sprintfOnce(r.reported, r.pass.Fset.Position(node.Pos()).String(), format, args...)
	if msg == "" {
		return
	}
	r.pass.Reportf(node.Pos(), "%s", msg)
}

// transfer interprets one CFG atom: every mutex operation it contains,
// in source order.
func (r *lockRunner) transfer(s *lockState, n ast.Node) {
	var calls []*ast.CallExpr
	inspectSameFunc(n, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			calls = append(calls, call)
		}
		return true
	})
	for _, call := range calls {
		op, recv, ok := r.mutexCall(call)
		if !ok {
			continue
		}
		info := mutexOps[op]
		root, path, ok := r.canon(recv)
		if !ok {
			continue
		}
		if info.read {
			path += "#R"
		}
		key := lockKey{root: root, path: path}
		if !info.acquire {
			delete(s.locks, key)
			continue
		}
		disp := root.Name() + strings.TrimSuffix(path, "#R")
		if existing, held := s.locks[key]; held && existing.status == lockHeld {
			r.report(call, "%s is locked again while already held; this deadlocks", disp)
			continue
		}
		s.locks[key] = heldLock{status: lockHeld, disp: disp, node: call}
	}
}

// atExit reports locks still (or maybe) held after deferred unlocks ran.
func (r *lockRunner) atExit(s *lockState) {
	for _, h := range s.locks {
		switch h.status {
		case lockHeld:
			r.report(h.node, "%s locked here is not unlocked on every path to return", h.disp)
		case lockMaybe:
			r.report(h.node, "%s locked here may still be held on some paths at return", h.disp)
		}
	}
}

// sprintfOnce formats the message and dedupes it per position key,
// returning "" for repeats (fixpoint iteration revisits blocks).
func sprintfOnce(seen map[string]bool, posKey, format string, args ...any) string {
	msg := fmt.Sprintf(format, args...)
	k := posKey + "\x00" + msg
	if seen[k] {
		return ""
	}
	seen[k] = true
	return msg
}
