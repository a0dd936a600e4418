// Package lint is a self-contained static-analysis suite that mechanically
// enforces the repository's determinism, hostile-input, and observability
// invariants. It mirrors the golang.org/x/tools/go/analysis model (Analyzer,
// Pass, Diagnostic) but is built only on the standard library's go/ast,
// go/types, and go/build packages so the checkers run offline, with no
// module downloads, exactly like the partitioners they police.
//
// The suite is three analyzers (All): maprange, cappedalloc and obsname. It
// is driven by cmd/dnelint (a multichecker run in CI next to go vet) and by
// the analysistest-style golden corpora under testdata/.
//
// There is one suppression, maprange's, and it works site by site:
//
//	//lint:ordered <why>
//
// on the flagged line or the line directly above it states why iteration
// order cannot reach output. A marker without a reason silences nothing.
// cappedalloc and obsname findings are fixed, never suppressed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker. Run receives a fully type-checked
// package and reports findings through pass.Report.
type Analyzer struct {
	// Name identifies the analyzer in findings.
	Name string
	// Doc is the one-paragraph description shown by dnelint -help.
	Doc string
	// Run inspects one package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info
	// Det marks the package as one of the deterministic packages whose
	// output feeds golden checksums; maprange only fires inside them. The
	// driver sets it from the import path (IsDeterministicPath); linttest
	// sets it from a corpus pragma.
	Det bool

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// PkgQualifier reports whether ident is a use of an imported package with
// the given import path (e.g. ident "rand" for "math/rand"). It is the
// type-checked replacement for matching selector text.
func (p *Pass) PkgQualifier(ident *ast.Ident, path string) bool {
	obj := p.TypesInfo.Uses[ident]
	pn, ok := obj.(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

// NamedTypeName returns the bare name of the named (or pointer-to-named)
// type of expr, or "" when expr's type is not named. Generic instantiations
// report their origin name.
func (p *Pass) NamedTypeName(expr ast.Expr) string {
	tv, ok := p.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	} else if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// IsMapType reports whether expr's core type is a map.
func (p *Pass) IsMapType(expr ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// deterministicPrefixes lists the packages whose outputs feed the golden
// determinism checksums: the partitioner API, every method core, the DNE
// distributed engine, and the graph readers/writers. A stray map-range in
// any of them silently breaks bit-identical reproduction.
var deterministicPrefixes = []string{
	"internal/partition",
	"internal/methods",
	"internal/dne",
	"internal/graph",
	"internal/nepart",
	"internal/lppart",
	"internal/sheep",
	"internal/metispart",
	"internal/streampart",
	"internal/hashpart",
	"internal/dynpart",
	"internal/powerlaw",
	"internal/gen",
	"internal/dsa",
	"internal/engine",
}

// IsDeterministicPath reports whether the import path belongs to the
// deterministic package set.
func IsDeterministicPath(path string) bool {
	for _, p := range deterministicPrefixes {
		if strings.HasSuffix(path, p) || strings.Contains(path, p+"/") {
			return true
		}
	}
	return false
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{MapRange, CappedAlloc, ObsName}
}

// RunAnalyzers applies every analyzer to pkg and returns the diagnostics
// sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			TypesInfo: pkg.TypesInfo,
			Det:       pkg.Det,
			report:    func(d Diagnostic) { out = append(out, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}
