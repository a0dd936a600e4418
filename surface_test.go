package dnebench

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported internal/ functions that may go without
// a caller in non-test code, each with the reason it stays.
var surfaceAllowlist = map[string]string{
	"cluster.NewChaos":  "fault-injection fake: tests wrap a Comm to delay and reorder messages",
	"cluster.NewFault":  "fault-injection fake: tests wrap a Comm to drop or fail messages",
	"cluster.WireKinds": "fault-injection fake: tests enumerate the wire kinds to fault each one",
	"cluster.DialTCP":   "used by benchmarks/e2e/wrap_test.go",
	"gen.WattsStrogatz": "test input generator for the dne and methods tests",
	"linttest.Run":      "the analyzer test harness",
}

// TestExportedFunctionsHaveCallers keeps the internal/ surface minimal: every
// exported top-level function under internal/ needs a caller in non-test code
// of this module or of benchmarks/e2e, or an allowlist entry saying why not.
// Methods are not checked. A stale allowlist entry (the name is gone, or it
// has gained a caller) fails too.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	uncalled, declared, err := uncalledExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range uncalled {
		if _, ok := surfaceAllowlist[name]; !ok {
			t.Errorf("%s is exported but no non-test code calls it: delete it, or add it to surfaceAllowlist with the reason it stays", name)
		}
	}
	for name := range surfaceAllowlist {
		switch {
		case !declared[name]:
			t.Errorf("surfaceAllowlist names %s, which no longer exists", name)
		case !slices.Contains(uncalled, name):
			t.Errorf("surfaceAllowlist names %s, which now has a caller: drop the entry", name)
		}
	}
}

// TestUncalledExportsFixture checks the scanner on a planted tree: an
// uncalled function (recursive, so it calls itself) and one only a test calls
// are reported; one called from its own package and one called from another
// package are not.
func TestUncalledExportsFixture(t *testing.T) {
	uncalled, declared, err := uncalledExports(filepath.Join("testdata", "surface"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.TestOnly", "a.Uncalled"}; !slices.Equal(uncalled, want) {
		t.Errorf("uncalled = %q, want %q", uncalled, want)
	}
	for _, name := range []string{"a.Cross", "a.Local", "a.TestOnly", "a.Uncalled"} {
		if !declared[name] {
			t.Errorf("%s not seen as declared", name)
		}
	}
}

// uncalledExports parses every non-test .go file under root (skipping
// testdata and dot directories), with import paths taken from root's go.mod.
// It returns, sorted as "pkg.Func", the exported top-level functions under
// root/internal that no non-test file references outside their own
// declaration, and the set of all such functions declared. Parsing is purely
// syntactic: another package references a function by a selector on its
// import name, its own package by the bare identifier.
func uncalledExports(root string) (uncalled []string, declared map[string]bool, err error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	type file struct {
		pkgPath string
		ast     *ast.File
	}
	var files []file
	pkgName := map[string]string{} // import path -> package name
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkgPath := path.Join(modPath, filepath.ToSlash(rel))
		pkgName[pkgPath] = f.Name.Name
		files = append(files, file{pkgPath, f})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Functions are keyed by import path and name while scanning.
	type fn struct{ pkgPath, name string }
	decls := map[fn]bool{}
	called := map[fn]bool{}
	internal := path.Join(modPath, "internal") + "/"
	for _, f := range files {
		imports := map[string]string{} // name in this file -> import path
		for _, spec := range f.ast.Imports {
			ip := strings.Trim(spec.Path.Value, `"`)
			name, ok := pkgName[ip]
			if !ok {
				name = path.Base(ip)
			}
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = ip
		}
		notRef := map[*ast.Ident]bool{} // declared names and selected fields
		for _, decl := range f.ast.Decls {
			self := "" // a function's references to itself do not count
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				self = fd.Name.Name
				if strings.HasPrefix(f.pkgPath, internal) && fd.Name.IsExported() {
					decls[fn{f.pkgPath, self}] = true
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					notRef[n.Name] = true
				case *ast.SelectorExpr:
					notRef[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
						if ip, ok := imports[x.Name]; ok {
							called[fn{ip, n.Sel.Name}] = true
							notRef[x] = true
						}
					}
				case *ast.Ident:
					// A bare name counts unless it is a local that shadows
					// the package-level function.
					if !notRef[n] && n.Name != self && (n.Obj == nil || n.Obj.Kind == ast.Fun) {
						called[fn{f.pkgPath, n.Name}] = true
					}
				}
				return true
			})
		}
	}

	declared = map[string]bool{}
	for d := range decls {
		key := pkgName[d.pkgPath] + "." + d.name
		declared[key] = true
		if !called[d] {
			uncalled = append(uncalled, key)
		}
	}
	slices.Sort(uncalled)
	return uncalled, declared, nil
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if p, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(p), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
