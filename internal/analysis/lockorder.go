package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder makes lock release structural. Every Lock or RLock of a
// sync mutex must be released by the shape of the code: either the next
// statement defers the matching unlock on the same receiver, or the
// unlock is a later statement of the same block and nothing between the
// two can leave the block (no return, branch or panic call). Either way
// the lock is released on every path that returns. Under a deferred
// unlock, a function body that locks the receiver again, or locks inside
// a loop, deadlocks: the deferred unlock has not run when the next Lock
// does. Function literals are checked as bodies of their own.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "check that every sync Lock/RLock is directly followed by a defer of " +
		"the matching unlock on the same receiver, or unlocked later in its " +
		"block with no return, branch or panic in between, and that no " +
		"function body locks a receiver it still holds " +
		"(suppress with //paylint:lockorder <reason>)",
	Run: runLockOrder,
}

// unlockFor maps each acquire method to the release that must match it.
var unlockFor = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

func runLockOrder(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLocks(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkLocks(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// checkLocks checks the Lock statements of one function body in source
// order, without descending into function literals. A statement list is
// visited before its statements, so rest already holds the statements
// that follow each one when the statement itself is visited. heldUntil
// records, per receiver, where its latest lock is released.
func checkLocks(pass *Pass, body *ast.BlockStmt) {
	rest := map[ast.Stmt][]ast.Stmt{}
	var loops []*ast.BlockStmt
	heldUntil := map[string]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			loops = append(loops, n.Body)
		case *ast.RangeStmt:
			loops = append(loops, n.Body)
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		case *ast.ExprStmt:
			recv, method := syncCall(pass, n.X)
			unlock := unlockFor[method]
			if unlock == "" {
				return true
			}
			inLoop := false
			for _, b := range loops {
				inLoop = inLoop || (b.Pos() <= n.Pos() && n.End() <= b.End())
			}
			until, deferred, released := release(pass, rest[n], recv, unlock)
			if deferred {
				until = body.End()
			}
			var msg string
			switch {
			case heldUntil[recv] > n.Pos():
				msg = "%s is locked again while this function body still holds it, which deadlocks"
			case !released:
				msg = "%s." + method + "() is neither directly followed by defer %[1]s." + unlock +
					"() nor unlocked later in its block with no return, branch or panic in between"
			case deferred && inLoop:
				msg = "%s is locked inside a loop; its deferred unlock runs only at return, so the next iteration deadlocks"
			}
			heldUntil[recv] = max(until, heldUntil[recv])
			if msg != "" && !pass.Suppressed(n, "lockorder") {
				pass.Reportf(n.Pos(), msg, recv)
			}
		}
		for i := range list {
			rest[list[i]] = list[i+1:]
		}
		return true
	})
}

// release reports how a Lock is released, given the statements that
// follow it in its block: deferred when the first defers recv.unlock(),
// or else by the plain recv.unlock() call that ends at until. released
// is false when there is no such call, or when a statement before it
// can leave the block: a return, branch or panic call outside a
// function literal.
func release(pass *Pass, stmts []ast.Stmt, recv, unlock string) (until token.Pos, deferred, released bool) {
	if len(stmts) > 0 {
		if d, ok := stmts[0].(*ast.DeferStmt); ok {
			if r, m := syncCall(pass, d.Call); r == recv && m == unlock {
				return token.NoPos, true, true
			}
		}
	}
	for _, s := range stmts {
		if e, ok := s.(*ast.ExprStmt); ok {
			if r, m := syncCall(pass, e.X); r == recv && m == unlock {
				return s.End(), false, true
			}
		}
		leaves := false
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt, *ast.BranchStmt:
				leaves = true
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					_, builtin := pass.TypesInfo.Uses[id].(*types.Builtin)
					leaves = leaves || (builtin && id.Name == "panic")
				}
			}
			return !leaves
		})
		if leaves {
			break
		}
	}
	return token.NoPos, false, false
}

// syncCall returns the receiver expression and method name of a call to
// a method declared in package sync, or "" for anything else.
func syncCall(pass *Pass, x ast.Expr) (recv, method string) {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	return types.ExprString(ast.Unparen(sel.X)), fn.Name()
}
