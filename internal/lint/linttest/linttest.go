// Package linttest runs analyzer golden corpora, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// alone. A corpus is a directory holding one Go package whose lines are
// annotated with expectations:
//
//	for k := range m { // want `range over map`
//
// Each `// want` comment carries one or more backquoted or double-quoted
// regular expressions; every reported diagnostic must match a want on its
// line, and every want must be matched by a diagnostic. The pragma
//
//	//lint:corpus deterministic
//
// anywhere in the package marks it as part of the deterministic package
// set, enabling the det-scoped analyzer (maprange).
package linttest

import (
	"regexp"
	"strings"
	"testing"

	"github.com/distributedne/dne/internal/lint"
)

var (
	wantHeadRE = regexp.MustCompile(`(?:^|\s)want\s`)
	wantRE     = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")
)

type expectation struct {
	re      *regexp.Regexp
	raw     string
	line    int
	matched bool
}

// Run loads the package in dir, applies the analyzers, and compares the
// diagnostics against the corpus's // want annotations.
func Run(t *testing.T, dir string, analyzers ...*lint.Analyzer) {
	t.Helper()
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	wants := map[string][]*expectation{} // file -> expectations
	det := false
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if strings.TrimSpace(text) == "lint:corpus deterministic" {
					det = true
					continue
				}
				loc := wantHeadRE.FindStringIndex(text)
				if loc == nil {
					continue
				}
				rest := text[loc[1]:]
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					wants[pos.Filename] = append(wants[pos.Filename],
						&expectation{re: re, raw: raw, line: pos.Line})
				}
			}
		}
	}
	pkg.Det = det

	diags, err := lint.RunAnalyzers(pkg, analyzers)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants[pos.Filename] {
			if w.line == pos.Line && !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, w.line, w.raw)
			}
		}
	}
}
