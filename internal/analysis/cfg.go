package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the flow-sensitive layer under paylint's v2 analyzers
// (poolpair, lockorder): an intra-procedural control-flow
// graph over ast.Stmt plus a join-based forward dataflow driver. The
// syntactic analyzers of PR 4 cannot see "a Get with no Put on the error
// path" or "a lock still held at an early return" — those are properties
// of paths, not of nodes — so the v2 analyzers interpret function bodies
// over this CFG instead of walking the AST.
//
// # Block and edge model
//
// A CFG is a set of basic blocks. Each block carries a list of ast.Node
// "atoms" in evaluation order: simple statements appear verbatim, and a
// branching statement is decomposed — its init statement and condition
// expression land in the block that evaluates them, its body in successor
// blocks. A block therefore never contains an IfStmt, ForStmt, SwitchStmt
// or similar composite (two deliberate exceptions below), and a client's
// Transfer function may interpret each node without worrying about
// double-visiting nested bodies.
//
// Edges record the branch condition and polarity where one exists
// (if/for conditions), so a dataflow client can refine its state on
// `err != nil`-shaped branches — this is how the resource-lifecycle
// analyzers understand that a value acquired by `v, err := f()` is not
// owned on the error path.
//
// The exceptions to decomposition:
//
//   - RangeStmt: the node itself opens its head block, standing for the
//     per-iteration header; clients interpret only X/Key/Value. The body
//     hangs off successor blocks as usual.
//   - statements the Options.Atomic predicate claims: the builder emits
//     them as a single opaque node with no internal control flow, and the
//     client interprets the whole statement itself. lockorder uses this
//     for the symmetric lock-in-loop/unlock-in-loop idiom of a two-phase
//     commit over a lock set, which a 0-or-1-iteration loop model would
//     falsely flag (see lockorder.go).
//
// # Defer semantics
//
// DeferStmt is not interpreted in place: the dataflow driver accumulates
// the deferred calls a path has registered as part of the flowing state,
// and replays them in LIFO order over the Transfer function when the
// path reaches the function exit. This models `defer mu.Unlock()` and
// `defer binary.PutBuffer(buf)` exactly where they take effect. Paths
// whose defer lists differ at a merge keep the union in first-seen
// order — conditional defers are rare and the union errs toward
// believing the release happens, i.e. toward under-reporting.
//
// # Termination and bounds
//
// `return` edges into the synthetic Exit block; `panic(...)`, os.Exit
// and log.Fatal* (via Options.NoReturn) terminate a block with no
// successors, so resources held at a crash site are not reported as
// path leaks. The driver iterates to a fixpoint with per-block state
// joins (loops converge because client lattices are finite maps over
// finitely many statuses) and additionally caps visits per block, so a
// degenerate client cannot hang the lint suite.

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the block control enters first.
	Entry *Block
	// Exit is the synthetic block every return reaches; falling off the
	// end of the body also edges here.
	Exit *Block
	// Blocks lists every block, Entry and Exit included.
	Blocks []*Block
}

// An Edge is one control transfer between blocks.
type Edge struct {
	// To is the destination block.
	To *Block
	// Cond is the branch condition this edge resolves, nil for
	// unconditional transfers.
	Cond ast.Expr
	// Taken reports the polarity: true for the branch taken when Cond
	// holds.
	Taken bool
}

// A Block is one basic block: nodes executed in order, then a transfer
// along one of Succs.
type Block struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Nodes are the block's atoms in evaluation order: simple statements,
	// bare condition expressions, range headers, and Atomic-claimed
	// statements.
	Nodes []ast.Node
	// Succs are the outgoing edges.
	Succs []Edge
}

// CFGOptions tunes BuildCFG.
type CFGOptions struct {
	// Atomic, when non-nil, may claim a for or range statement: the
	// builder emits it as one opaque node instead of decomposing it, and
	// the client's Transfer interprets the whole loop.
	Atomic func(ast.Stmt) bool
	// NoReturn, when non-nil, marks calls that never return (os.Exit,
	// log.Fatalf); panic is always recognized. A statement ending in such
	// a call terminates its block with no successors.
	NoReturn func(*ast.CallExpr) bool
}

// BuildCFG builds the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt, opt CFGOptions) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, opt: opt, labels: map[string]*Block{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmt(body)
	b.edge(b.cur, b.cfg.Exit, nil, false)
	return b.cfg
}

// loopFrame is one enclosing breakable construct during construction.
type loopFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames
}

type cfgBuilder struct {
	cfg          *CFG
	opt          CFGOptions
	cur          *Block
	frames       []loopFrame
	labels       map[string]*Block
	pendingLabel string
	// fallthroughTo is the next case clause's block while building a
	// switch clause body.
	fallthroughTo *Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, cond ast.Expr, taken bool) {
	from.Succs = append(from.Succs, Edge{To: to, Cond: cond, Taken: taken})
}

func (b *cfgBuilder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

// dead starts a fresh unreachable block after a terminator; anything
// appended there has no in-state and is skipped by the driver.
func (b *cfgBuilder) dead() { b.cur = b.newBlock() }

// takeLabel consumes the pending label of a labeled statement, so the
// loop or switch it introduces registers a labeled frame.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// labelBlock returns (creating on demand) the block a label names, the
// join point gotos and the labeled statement itself reach.
func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

// findFrame resolves a break (continue=false) or continue (true) target.
func (b *cfgBuilder) findFrame(label string, isContinue bool) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if label != "" && f.label != label {
			continue
		}
		if isContinue {
			if f.continueTo == nil {
				continue // switch/select frames accept break only
			}
			return f.continueTo
		}
		return f.breakTo
	}
	return nil
}

// isPanicOrExit reports whether the expression statement's call
// terminates the function abnormally.
func (b *cfgBuilder) isPanicOrExit(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	return b.opt.NoReturn != nil && b.opt.NoReturn(call)
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, t := range s.List {
			b.stmt(t)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		then := b.newBlock()
		after := b.newBlock()
		b.edge(condBlk, then, s.Cond, true)
		b.cur = then
		b.stmt(s.Body)
		b.edge(b.cur, after, nil, false)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(condBlk, els, s.Cond, false)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, after, nil, false)
		} else {
			b.edge(condBlk, after, s.Cond, false)
		}
		b.cur = after
	case *ast.ForStmt:
		if b.opt.Atomic != nil && b.opt.Atomic(s) {
			b.add(s)
			return
		}
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head, nil, false)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock()
		after := b.newBlock()
		continueTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			continueTo = post
		}
		b.edge(head, body, s.Cond, true)
		if s.Cond != nil {
			b.edge(head, after, s.Cond, false)
		}
		b.frames = append(b.frames, loopFrame{label: label, breakTo: after, continueTo: continueTo})
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, continueTo, nil, false)
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head, nil, false)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after
	case *ast.RangeStmt:
		if b.opt.Atomic != nil && b.opt.Atomic(s) {
			b.add(s)
			return
		}
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(b.cur, head, nil, false)
		b.cur = head
		b.add(s) // range header: clients interpret X/Key/Value only
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body, nil, false)
		b.edge(head, after, nil, false)
		b.frames = append(b.frames, loopFrame{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, head, nil, false)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after
	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(label, s.Body, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
			nodes := make([]ast.Node, len(cc.List))
			for i, e := range cc.List {
				nodes[i] = e
			}
			return nodes, cc.Body, cc.List == nil
		})
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(label, s.Body, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
			return nil, cc.Body, cc.List == nil
		})
	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		after := b.newBlock()
		b.frames = append(b.frames, loopFrame{label: label, breakTo: after})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk, nil, false)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			for _, t := range cc.Body {
				b.stmt(t)
			}
			b.edge(b.cur, after, nil, false)
		}
		// A select blocks until some clause runs (a default clause is
		// just a clause that always can), so after is reachable only
		// through clause bodies; an empty select blocks forever and
		// after stays unreachable. No head→after edge either way.
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after
	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.edge(b.cur, lb, nil, false)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if to := b.findFrame(label, false); to != nil {
				b.edge(b.cur, to, nil, false)
			}
			b.dead()
		case token.CONTINUE:
			if to := b.findFrame(label, true); to != nil {
				b.edge(b.cur, to, nil, false)
			}
			b.dead()
		case token.GOTO:
			b.edge(b.cur, b.labelBlock(label), nil, false)
			b.dead()
		case token.FALLTHROUGH:
			if b.fallthroughTo != nil {
				b.edge(b.cur, b.fallthroughTo, nil, false)
			}
			b.dead()
		}
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit, nil, false)
		b.dead()
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.isPanicOrExit(call) {
			b.dead()
		}
	default:
		// AssignStmt, DeclStmt, DeferStmt, GoStmt, SendStmt, IncDecStmt,
		// EmptyStmt: straight-line atoms.
		b.add(s)
	}
}

// caseClauses builds the clause blocks of a switch or type switch, with
// fallthrough edges and the implicit no-default exit.
func (b *cfgBuilder) caseClauses(label string, body *ast.BlockStmt, split func(*ast.CaseClause) ([]ast.Node, []ast.Stmt, bool)) {
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTo: after})
	blks := make([]*Block, len(body.List))
	for i := range body.List {
		blks[i] = b.newBlock()
	}
	hasDefault := false
	savedFT := b.fallthroughTo
	for i, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		nodes, stmts, isDefault := split(cc)
		if isDefault {
			hasDefault = true
		}
		b.edge(head, blks[i], nil, false)
		b.cur = blks[i]
		for _, n := range nodes {
			b.add(n)
		}
		if i+1 < len(blks) {
			b.fallthroughTo = blks[i+1]
		} else {
			b.fallthroughTo = nil
		}
		for _, t := range stmts {
			b.stmt(t)
		}
		b.edge(b.cur, after, nil, false)
	}
	b.fallthroughTo = savedFT
	if !hasDefault {
		b.edge(head, after, nil, false)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

// FlowState is one dataflow lattice element. States must form a finite
// lattice under JoinFlow for the driver to terminate (finite maps over
// finitely many statuses do).
type FlowState interface {
	// CloneFlow returns an independent copy.
	CloneFlow() FlowState
	// JoinFlow merges other into the receiver and reports whether the
	// receiver changed. other is never mutated.
	JoinFlow(other FlowState) bool
}

// A FlowAnalysis drives a forward dataflow over one CFG: states propagate
// along edges, join at merge points, and the exit state — with deferred
// calls replayed in LIFO order — is handed to AtExit.
type FlowAnalysis struct {
	// Entry is the state at function entry; the driver clones it.
	Entry FlowState
	// Transfer interprets one block atom, mutating s. It also receives
	// each deferred *ast.CallExpr when a path reaches the exit.
	Transfer func(s FlowState, n ast.Node)
	// Branch, if non-nil, refines s in place for the given polarity of a
	// branch condition before the state flows into the target block.
	Branch func(s FlowState, cond ast.Expr, taken bool)
	// AtExit receives the fixpoint state at function exit, after defers.
	AtExit func(s FlowState)
}

// maxBlockVisits bounds the walker: no block is re-transferred more than
// this many times, a backstop against a client lattice that fails to
// converge. Real lattices here converge in a handful of passes.
const maxBlockVisits = 64

// walkState pairs the client state with the path's registered defers.
type walkState struct {
	st     FlowState
	defers []*ast.CallExpr
}

func (w *walkState) clone() *walkState {
	return &walkState{st: w.st.CloneFlow(), defers: append([]*ast.CallExpr(nil), w.defers...)}
}

// join merges other into w, unioning defer lists in first-seen order.
func (w *walkState) join(other *walkState) bool {
	changed := w.st.JoinFlow(other.st)
	for _, d := range other.defers {
		seen := false
		for _, have := range w.defers {
			if have == d {
				seen = true
				break
			}
		}
		if !seen {
			w.defers = append(w.defers, d)
			changed = true
		}
	}
	return changed
}

// Run executes the analysis over cfg to fixpoint.
func (fa *FlowAnalysis) Run(cfg *CFG) {
	in := make([]*walkState, len(cfg.Blocks))
	visits := make([]int, len(cfg.Blocks))
	in[cfg.Entry.Index] = &walkState{st: fa.Entry.CloneFlow()}
	work := []*Block{cfg.Entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		if visits[blk.Index] >= maxBlockVisits {
			continue
		}
		visits[blk.Index]++
		s := in[blk.Index].clone()
		for _, n := range blk.Nodes {
			if d, ok := n.(*ast.DeferStmt); ok {
				s.defers = append(s.defers, d.Call)
				continue
			}
			fa.Transfer(s.st, n)
		}
		for _, e := range blk.Succs {
			out := s
			if len(blk.Succs) > 1 {
				out = s.clone()
			}
			if e.Cond != nil && fa.Branch != nil {
				fa.Branch(out.st, e.Cond, e.Taken)
			}
			if in[e.To.Index] == nil {
				in[e.To.Index] = out.clone()
				work = append(work, e.To)
			} else if in[e.To.Index].join(out) {
				work = append(work, e.To)
			}
		}
	}
	exit := in[cfg.Exit.Index]
	if exit == nil || fa.AtExit == nil {
		return
	}
	final := exit.clone()
	for i := len(final.defers) - 1; i >= 0; i-- {
		fa.Transfer(final.st, final.defers[i])
	}
	fa.AtExit(final.st)
}
