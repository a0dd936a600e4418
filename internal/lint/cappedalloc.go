package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CappedAlloc codifies the capped-preallocation discipline of the shard and
// binary readers: a length decoded from input (an EShard/ESZ1 header,
// a varint, a wire frame) must never reach make() unbounded, because a
// hostile 8-byte header would otherwise dial allocation directly.
//
// The check is a per-function, source-order taint walk:
//
//   - taint sources: encoding/binary decodes (binary.LittleEndian.UintN,
//     binary.Read, binary.ReadUvarint/ReadVarint, binary.Uvarint/Varint);
//   - propagation: assignment, arithmetic, and conversions carry taint to
//     the assigned variables;
//   - sanitizers: an ordered comparison (<, >, <=, >=) mentioning the
//     variable — the bound check — or passing it through a function whose
//     name contains min/max/bound/cap/clamp, or reassignment from clean
//     values;
//   - sink: a make() whose length or capacity argument is still tainted.
//
// Equality tests do not sanitize: `if n == 0` says nothing about how large
// n may be. The walk is intra-function by design — a count that crosses a
// function boundary must be re-bounded where it is used.
//
// The fixed-layout formats (DNB1/DNC1) decode their counts inside
// internal/binio, whose Slab bounds preallocation by binio.Cap; the formats
// themselves size slices only by data already read.
var CappedAlloc = &Analyzer{
	Name: "cappedalloc",
	Doc: "flags make() sized by a decoded input count with no intervening bound " +
		"check (the ShardReader/binio capped-prealloc discipline)",
	Run: runCappedAlloc,
}

func runCappedAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkAllocTaint(pass, fd.Body)
		}
	}
	return nil
}

// sanitizerCall reports whether a called function's bare name suggests it
// bounds its argument.
func sanitizerCall(call *ast.CallExpr) bool {
	var name string
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	default:
		return false
	}
	name = strings.ToLower(name)
	for _, frag := range []string{"min", "max", "bound", "cap", "clamp"} {
		if strings.Contains(name, frag) {
			return true
		}
	}
	return false
}

// isBinaryDecode reports whether call is one of the encoding/binary taint
// sources.
func isBinaryDecode(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// binary.ReadUvarint, binary.Read, binary.Uvarint, …
	if qual, ok := sel.X.(*ast.Ident); ok && pass.PkgQualifier(qual, "encoding/binary") {
		switch sel.Sel.Name {
		case "Read", "ReadUvarint", "ReadVarint", "Uvarint", "Varint":
			return true
		}
		return false
	}
	// binary.LittleEndian.Uint64 / binary.BigEndian.Uint32 / …
	if inner, ok := sel.X.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Uint") {
		if qual, ok := inner.X.(*ast.Ident); ok && pass.PkgQualifier(qual, "encoding/binary") {
			return true
		}
	}
	return false
}

// allocTaint is the per-function walk state.
type allocTaint struct {
	pass    *Pass
	tainted map[types.Object]bool
}

func checkAllocTaint(pass *Pass, body *ast.BlockStmt) {
	at := &allocTaint{pass: pass, tainted: map[types.Object]bool{}}
	ast.Inspect(body, at.visit)
}

// exprTainted reports whether expr's subtree mentions a tainted variable or
// contains a decode call directly.
func (at *allocTaint) exprTainted(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := at.pass.TypesInfo.Uses[n]; obj != nil && at.tainted[obj] {
				found = true
				return false
			}
		case *ast.CallExpr:
			if isBinaryDecode(at.pass, n) {
				found = true
				return false
			}
			if sanitizerCall(n) {
				return false // min(n, cap)-style call launders its result
			}
		}
		return true
	})
	return found
}

// lhsObj resolves an assignment target to its variable object (locals and
// struct fields through a selector).
func (at *allocTaint) lhsObj(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := at.pass.TypesInfo.Defs[e]; obj != nil {
			return obj
		}
		return at.pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		return at.pass.TypesInfo.Uses[e.Sel]
	}
	return nil
}

func (at *allocTaint) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		// Visit RHS first so `n := binary…; m := n` chains taint, then
		// propagate to every LHS target. Multi-value RHS (v, err := …)
		// taints all targets when the call is a decode.
		taint := false
		for _, rhs := range n.Rhs {
			if at.exprTainted(rhs) {
				taint = true
			}
		}
		for _, lhs := range n.Lhs {
			if obj := at.lhsObj(lhs); obj != nil {
				at.tainted[obj] = taint
			}
		}
	case *ast.BinaryExpr:
		switch n.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			// An ordered comparison is the bound check: every tainted
			// variable it mentions is considered bounded from here on.
			at.sanitizeMentioned(n)
		}
	case *ast.CallExpr:
		fn, ok := n.Fun.(*ast.Ident)
		if !ok || fn.Name != "make" {
			return true
		}
		if _, isBuiltin := at.pass.TypesInfo.Uses[fn].(*types.Builtin); isBuiltin {
			for _, arg := range n.Args[1:] {
				if at.exprTainted(arg) {
					at.pass.Reportf(n.Pos(), "make sized by a count decoded from input with no bound check between decode and allocation; cap it first (see binio.Cap)")
					break
				}
			}
		}
	}
	return true
}

func (at *allocTaint) sanitizeMentioned(expr ast.Expr) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := at.pass.TypesInfo.Uses[id]; obj != nil && at.tainted[obj] {
				at.tainted[obj] = false
			}
		}
		return true
	})
}
