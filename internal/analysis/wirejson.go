package analysis

import (
	"go/ast"
	"reflect"
)

// WireJSON pins the serialized shape of the repo's output structs. The
// experiment harness's byte-identity guarantee (and the HTTP protocol's
// compatibility) is carried by encoding/json struct tags: an exported
// field added without a tag is silently marshaled under its Go name,
// changing output bytes for every consumer and breaking recorded
// regression JSON. Requiring an explicit tag on every exported field —
// including `json:"-"` for diagnostics that must stay out of the wire
// format — turns that silent drift into a build-time decision.
//
// Two scopes:
//   - paydemand/internal/wire: every struct is a protocol message, so
//     every exported field must be tagged, period.
//   - the deterministic packages (sim, selection, experiments, metrics,
//     server): any struct that has opted into serialization (at least
//     one field already carries a json tag) must tag all its exported
//     fields, so partially tagged result structs cannot grow silent
//     fields.
//
// There is no suppression directive: `json:"-"` is the escape hatch,
// and it is itself the documentation.
var WireJSON = &Analyzer{
	Name: "wirejson",
	Doc: "require explicit json tags on every exported field of wire " +
		"messages and serialized result structs",
	Run: runWireJSON,
}

// wireStrictPackages require json tags on every struct.
var wireStrictPackages = []string{"paydemand/internal/wire"}

func runWireJSON(pass *Pass) error {
	strict := false
	for _, p := range wireStrictPackages {
		if pass.Pkg.Path() == p {
			strict = true
		}
	}
	if !strict && !isDeterministicPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				checkStructTags(pass, ts.Name.Name, st, strict)
			}
		}
	}
	return nil
}

// checkStructTags reports exported fields without json tags. In
// non-strict mode only structs that already carry at least one json tag
// are held to the rule.
func checkStructTags(pass *Pass, typeName string, st *ast.StructType, strict bool) {
	if !strict && !hasAnyJSONTag(st) {
		return
	}
	for _, field := range st.Fields.List {
		if jsonTagOf(field) != "" {
			continue
		}
		for _, name := range fieldNames(field) {
			if !ast.IsExported(name) {
				continue
			}
			pass.Reportf(field.Pos(), "exported field %s.%s has no json tag; "+
				"tag it explicitly (json:\"-\" for fields that must stay out of serialized output)",
				typeName, name)
		}
	}
}

// hasAnyJSONTag reports whether any field of the struct carries a json
// tag — the marker that the struct participates in serialization.
func hasAnyJSONTag(st *ast.StructType) bool {
	for _, field := range st.Fields.List {
		if jsonTagOf(field) != "" {
			return true
		}
	}
	return false
}

// jsonTagOf returns the field's json struct tag value, or "".
func jsonTagOf(field *ast.Field) string {
	if field.Tag == nil {
		return ""
	}
	raw := field.Tag.Value
	if len(raw) < 2 {
		return ""
	}
	return reflect.StructTag(raw[1 : len(raw)-1]).Get("json")
}

// fieldNames returns the declared names of a field, or the embedded type
// name for anonymous fields (which json flattens, so they pin output
// shape just like named fields).
func fieldNames(field *ast.Field) []string {
	if len(field.Names) > 0 {
		names := make([]string, len(field.Names))
		for i, n := range field.Names {
			names[i] = n.Name
		}
		return names
	}
	// Embedded field: the type's base name is the implicit field name.
	t := field.Type
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return []string{t.Name}
	case *ast.SelectorExpr:
		return []string{t.Sel.Name}
	case *ast.IndexExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return []string{id.Name}
		}
	}
	return nil
}
