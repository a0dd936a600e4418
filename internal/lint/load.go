package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The loader replaces golang.org/x/tools/go/packages with a standard-library
// implementation so the lint suite needs no module downloads: module-local
// imports are resolved by mapping the import path onto the repository
// directory tree, and standard-library imports are type-checked from GOROOT
// source via go/importer's "source" compiler. Everything is memoized in one
// Loader so identical import paths yield identical *types.Package values
// across the whole run.

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// Det records membership in the deterministic package set (see
	// IsDeterministicPath); linttest overrides it from a corpus pragma.
	Det bool
}

// Loader loads and type-checks packages of one module.
type Loader struct {
	Fset    *token.FileSet
	modRoot string
	modPath string
	ctxt    build.Context
	std     types.Importer

	mu    sync.Mutex
	byDir map[string]*Package
}

var disableCgoOnce sync.Once

// NewLoader creates a loader for the module containing dir. It walks up to
// the enclosing go.mod to learn the module root and path.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	// The source importer type-checks the standard library from GOROOT
	// source through the process-global build.Default context. Cgo-gated
	// packages (net, os/user) only have pure-Go source variants when cgo is
	// off, so disable it once for the process: the repository itself is
	// pure Go, and type-checking is unaffected.
	disableCgoOnce.Do(func() { build.Default.CgoEnabled = false })
	ctxt := build.Default
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		modRoot: root,
		modPath: path,
		ctxt:    ctxt,
		std:     importer.ForCompiler(fset, "source", nil),
		byDir:   map[string]*Package{},
	}, nil
}

func findModule(dir string) (root, path string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Import implements types.Importer: module-local paths map onto the
// repository tree; everything else (the standard library) goes to the
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.modRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir parses and type-checks the package in dir (non-test files only,
// honoring build constraints), memoized.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	if pkg, ok := l.byDir[abs]; ok {
		l.mu.Unlock()
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", abs)
		}
		return pkg, nil
	}
	l.byDir[abs] = nil // cycle marker
	l.mu.Unlock()

	pkg, err := l.loadDir(abs)
	l.mu.Lock()
	if err != nil {
		delete(l.byDir, abs)
	} else {
		l.byDir[abs] = pkg
	}
	l.mu.Unlock()
	return pkg, err
}

func (l *Loader) loadDir(abs string) (*Package, error) {
	bp, err := l.ctxt.ImportDir(abs, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", abs, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", abs)
	}
	pkgPath := l.pkgPathFor(abs, bp.Name)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Dir:       abs,
		Fset:      l.Fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
		Det:       IsDeterministicPath(pkgPath),
	}, nil
}

func (l *Loader) pkgPathFor(abs, name string) string {
	if rel, err := filepath.Rel(l.modRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			return l.modPath
		}
		return l.modPath + "/" + filepath.ToSlash(rel)
	}
	return name
}

// ExpandPatterns resolves command-line package patterns ("./...", "./dir",
// import-path-style) into package directories, skipping testdata, hidden
// directories, and directories with no non-test Go files.
func (l *Loader) ExpandPatterns(cwd string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		} else if pat == "..." {
			recursive = true
			pat = "."
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(cwd, base)
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
