// Package lint is a self-contained static-analysis suite that mechanically
// enforces the repository's determinism, hostile-input, and ctx/observability
// invariants. It mirrors the golang.org/x/tools/go/analysis model (Analyzer,
// Pass, Diagnostic) but is built only on the standard library's go/ast,
// go/types, and go/build packages so the checkers run offline, with no
// module downloads, exactly like the partitioners they police.
//
// The suite is driven by cmd/dnelint (a multichecker run in CI next to go
// vet) and by the analysistest-style golden corpora under testdata/.
//
// Findings are suppressed site by site, never globally:
//
//	//lint:ordered <why>            accepted by maprange only: iteration
//	                                order provably does not reach output
//	//dnelint:ignore <analyzer> <why>  accepted by every analyzer
//
// A suppression comment must sit on the flagged line or the line directly
// above it, and must carry a justification; bare suppressions are themselves
// reported.
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
	// Name identifies the analyzer in findings and in //dnelint:ignore
	// suppression comments.
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
	Pkg       *types.Package
	TypesInfo *types.Info
	// Det marks the package as one of the deterministic packages whose
	// output feeds golden checksums; maprange/seedrand/ctxloop only fire
	// inside them. The driver sets it from the import path
	// (IsDeterministicPath); linttest sets it from a corpus pragma.
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

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// deterministicPrefixes lists the packages whose outputs feed the golden
// determinism checksums: the partitioner API, every method core, the DNE
// distributed engine, and the graph readers/writers. A stray map-range or
// unseeded RNG in any of them silently breaks bit-identical reproduction.
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

// suppression is one parsed suppression comment.
type suppression struct {
	file string
	line int
	// analyzer is the analyzer name the comment silences; "ordered" is
	// stored for //lint:ordered and interpreted by maprange alone.
	analyzer      string
	justified     bool
	pos           token.Pos
	used          bool
	orderedMarker bool
}

// Suppressions indexes every suppression comment of a package.
type Suppressions struct {
	byKey map[string][]*suppression // "file:line" -> comments on that line
	all   []*suppression
}

// CollectSuppressions parses //lint:ordered and //dnelint:ignore comments
// from all files of a pass.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{byKey: map[string][]*suppression{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				var sup *suppression
				switch {
				case strings.HasPrefix(text, "lint:ordered"):
					rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:ordered"))
					sup = &suppression{analyzer: "maprange", justified: rest != "", orderedMarker: true}
				case strings.HasPrefix(text, "dnelint:ignore"):
					rest := strings.Fields(strings.TrimPrefix(text, "dnelint:ignore"))
					sup = &suppression{}
					if len(rest) > 0 {
						sup.analyzer = rest[0]
					}
					sup.justified = len(rest) > 1
				default:
					continue
				}
				pos := fset.Position(c.Pos())
				sup.file, sup.line, sup.pos = pos.Filename, pos.Line, c.Pos()
				key := fmt.Sprintf("%s:%d", sup.file, sup.line)
				s.byKey[key] = append(s.byKey[key], sup)
				s.all = append(s.all, sup)
			}
		}
	}
	return s
}

// Match reports whether a diagnostic from analyzer at position pos is
// covered by a suppression on the same line or the line directly above, and
// marks the suppression used. Unjustified suppressions never match: the
// driver turns them into findings of their own.
func (s *Suppressions) Match(fset *token.FileSet, analyzer string, pos token.Pos) bool {
	p := fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, sup := range s.byKey[fmt.Sprintf("%s:%d", p.Filename, line)] {
			ok := sup.analyzer == analyzer || (sup.orderedMarker && analyzer == "maprange")
			if ok && sup.justified {
				sup.used = true
				return true
			}
		}
	}
	return false
}

// Audit returns a finding for every malformed suppression: missing
// justification, or an analyzer name the suite does not know.
func (s *Suppressions) Audit(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, sup := range s.all {
		switch {
		case !sup.justified:
			out = append(out, Diagnostic{Pos: sup.pos, Analyzer: "suppress",
				Message: "suppression comment carries no justification; write //lint:ordered <why> or //dnelint:ignore <analyzer> <why>"})
		case !sup.orderedMarker && !known[sup.analyzer]:
			out = append(out, Diagnostic{Pos: sup.pos, Analyzer: "suppress",
				Message: fmt.Sprintf("suppression names unknown analyzer %q", sup.analyzer)})
		}
	}
	return out
}

// RunAnalyzers applies every analyzer to pkg, filters findings through the
// package's suppression comments, and returns the surviving diagnostics
// sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sups := CollectSuppressions(pkg.Fset, pkg.Files)
	known := map[string]bool{}
	var out []Diagnostic
	for _, a := range analyzers {
		known[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Det:       pkg.Det,
		}
		pass.report = func(d Diagnostic) {
			if sups.Match(pkg.Fset, d.Analyzer, d.Pos) {
				return
			}
			out = append(out, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	out = append(out, sups.Audit(known)...)
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}
