package analysis

import (
	"go/ast"
	"go/types"
)

// Directive vets the suppression directives themselves. A //paylint:
// directive is an auditable exception to an invariant; a malformed one —
// unknown verb, missing justification, or attached to a construct it
// cannot suppress — would otherwise rot silently, either suppressing
// nothing or lulling a reader into thinking something is suppressed.
//
// Reported:
//   - unknown verbs (anything outside the verb table in directive.go);
//   - //paylint:sorted without a reason, or not attached to a range
//     statement over a map;
//   - //paylint:aliases without a field name, not attached to an
//     exported function declaration, or naming a field that does not
//     exist on the receiver's type;
//   - //paylint:lockorder without a reason;
//   - stale directives: a well-formed directive whose owning analyzer
//     ran in this batch and suppressed nothing with it. The justification
//     excused a finding that no longer exists, so the directive must go
//     before it misleads a reader into thinking an exception is live.
//
// Attachment follows the same rule the suppressing analyzers use: the
// directive must sit on the construct's starting line or the line
// immediately above it. The stale check relies on the driver running
// this analyzer last on each package (analysis.Run enforces that), with
// the other analyzers recording which directives they consulted.
var Directive = &Analyzer{
	Name: "directive",
	Doc: "check that every //paylint: suppression directive is well-formed, " +
		"attached to a suppressible construct, and still suppressing a finding",
	Run: runDirective,
}

// verbOwner maps each suppression verb to the analyzer that consumes it;
// a directive is stale only if its owner ran and never used it.
var verbOwner = map[string]string{
	"sorted":    "mapiter",
	"aliases":   "scratchalias",
	"lockorder": "lockorder",
}

// knownVerbs is the alphabetical verb list for the unknown-verb message.
const knownVerbs = "aliases, lockorder, sorted"

func runDirective(pass *Pass) error {
	idx := pass.directiveIdx()
	if len(idx.all) == 0 {
		return nil
	}
	rangeLines, funcLines := attachmentLines(pass)
	for _, d := range idx.all {
		malformed := false
		switch d.Verb {
		case "sorted":
			if d.Args == "" {
				pass.Reportf(d.Pos, "//paylint:sorted needs a reason: say why iteration order is immaterial here")
				malformed = true
			}
			if !attachedTo(rangeLines, d.Line) {
				pass.Reportf(d.Pos, "//paylint:sorted is not attached to a range statement over a map; "+
					"put it on the statement's line or the line above")
				malformed = true
			}
		case "aliases":
			if d.Args == "" {
				pass.Reportf(d.Pos, "//paylint:aliases needs the name of the scratch field the return value aliases")
				malformed = true
			}
			fn, ok := funcLines[d.Line]
			if !ok {
				pass.Reportf(d.Pos, "//paylint:aliases is not attached to an exported function declaration; "+
					"put it on the declaration's line or the line above (last line of the doc comment)")
				malformed = true
			} else if d.Args != "" && !receiverHasField(pass, fn, d.Args) {
				pass.Reportf(d.Pos, "//paylint:aliases %s: %s's receiver has no field named by %q",
					d.Args, fn.Name.Name, d.Args)
				malformed = true
			}
		case "lockorder":
			if d.Args == "" {
				pass.Reportf(d.Pos, "//paylint:%s needs a reason: say why this deviation from the %s invariant is safe",
					d.Verb, verbOwner[d.Verb])
				malformed = true
			}
		default:
			pass.Reportf(d.Pos, "unknown directive //paylint:%s (known: %s)", d.Verb, knownVerbs)
			continue
		}
		if malformed || pass.usage == nil {
			continue
		}
		if owner := verbOwner[d.Verb]; pass.usage.ran[owner] && !pass.usage.used[d.Pos] {
			pass.Reportf(d.Pos, "stale directive //paylint:%s: it no longer suppresses any %s finding; remove it",
				d.Verb, owner)
		}
	}
	return nil
}

// attachmentLines indexes, per line, the constructs a directive on that
// line (or the line below, handled by attachedTo/lookup) may suppress:
// map range statements and exported function declarations.
func attachmentLines(pass *Pass) (rangeLines map[int]bool, funcLines map[int]*ast.FuncDecl) {
	rangeLines = map[int]bool{}
	funcLines = map[int]*ast.FuncDecl{}
	claim := func(start int, put func(int)) {
		// A construct starting at line L is suppressible from lines L
		// (trailing comment) and L-1 (preceding line).
		put(start)
		put(start - 1)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				tv, ok := pass.TypesInfo.Types[n.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				claim(pass.Fset.Position(n.Pos()).Line, func(l int) { rangeLines[l] = true })
			case *ast.FuncDecl:
				if !n.Name.IsExported() {
					return true
				}
				fn := n
				claim(pass.Fset.Position(n.Pos()).Line, func(l int) {
					if _, taken := funcLines[l]; !taken {
						funcLines[l] = fn
					}
				})
			}
			return true
		})
	}
	return rangeLines, funcLines
}

// attachedTo reports whether a directive on the given line claims one of
// the indexed constructs.
func attachedTo(lines map[int]bool, line int) bool { return lines[line] }

// receiverHasField reports whether any whitespace-separated word of args
// names a field of fn's receiver type (or of a parameter's struct type
// for plain functions).
func receiverHasField(pass *Pass, fn *ast.FuncDecl, args string) bool {
	var candidates []*ast.Field
	if fn.Recv != nil {
		candidates = fn.Recv.List
	} else if fn.Type.Params != nil {
		candidates = fn.Type.Params.List
	}
	for _, p := range candidates {
		tv, ok := pass.TypesInfo.Types[p.Type]
		if !ok {
			continue
		}
		t := tv.Type
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if directiveNamesField(args, st.Field(i).Name()) {
				return true
			}
		}
	}
	return false
}
