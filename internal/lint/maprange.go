package lint

import (
	"go/ast"
	"strings"
)

// MapRange flags `for … range` over a map inside deterministic packages.
// Go randomizes map iteration order, so any map-range whose effects can
// reach partitioning output, serialized bytes, or printed reports is a
// latent determinism bug — the golden checksums only hold as long as no
// such site exists.
//
// One idiom is recognized as safe and never flagged: collecting the keys
// for a later sort, i.e. a loop body that is exactly
//
//	keys = append(keys, k)
//
// Every other map-range in a deterministic package must either iterate a
// sorted key slice instead, or carry a //lint:ordered <why> comment, on the
// loop's line or the line directly above, stating why iteration order cannot
// reach output (e.g. commutative accumulation). A marker with no reason
// silences nothing.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc: "flags range-over-map in deterministic packages unless keys are collected " +
		"for sorting or the site carries a //lint:ordered justification",
	Run: runMapRange,
}

func runMapRange(pass *Pass) error {
	if !pass.Det {
		return nil
	}
	for _, f := range pass.Files {
		ordered := orderedLines(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !pass.IsMapType(rs.X) {
				return true
			}
			if line := pass.Fset.Position(rs.For).Line; ordered[line] || ordered[line-1] {
				return true
			}
			if isKeyCollectLoop(rs) {
				return true
			}
			pass.Reportf(rs.For, "range over map in deterministic package: iteration order is randomized; sort the keys first or justify with //lint:ordered <why>")
			return true
		})
	}
	return nil
}

// orderedLines returns the lines of f that carry a justified
// //lint:ordered <why> marker.
func orderedLines(pass *Pass, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			why, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "lint:ordered")
			if ok && strings.TrimSpace(why) != "" {
				lines[pass.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// isKeyCollectLoop reports whether rs is exactly `for k := range m { s =
// append(s, k) }` (no value variable consumed), the canonical
// collect-then-sort prologue.
func isKeyCollectLoop(rs *ast.RangeStmt) bool {
	if rs.Value != nil {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if len(rs.Body.List) != 1 {
		return false
	}
	asgn, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asgn.Lhs) != 1 || len(asgn.Rhs) != 1 {
		return false
	}
	call, ok := asgn.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	// Every appended element must be the key itself (append(s, k) or a
	// composite containing only k is not attempted — keep the idiom tight).
	for _, arg := range call.Args[1:] {
		id, ok := arg.(*ast.Ident)
		if !ok || id.Name != key.Name {
			return false
		}
	}
	return true
}
