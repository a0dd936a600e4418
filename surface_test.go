package dnebench

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/distributedne/dne/internal/lint"
)

// surfaceAllowlist names the internal/ functions and methods that may go
// without a caller in non-test code, each with the reason it stays.
var surfaceAllowlist = map[string]string{
	"bound.Theorem1":               "the paper's Theorem 1, kept beside Table 1's bounds; the road-network example prints it",
	"cluster.NewChaos":             "fault-injection fake: tests wrap a Comm to delay and reorder messages",
	"cluster.Chaos.Close":          "fault-injection fake: tests stop the Chaos delay worker",
	"cluster.NewFault":             "fault-injection fake: tests wrap a Comm to drop or fail messages",
	"cluster.FaultComm.Ops":        "fault-injection fake: tests read the op count to place a kill",
	"cluster.FaultConfig.Dialer":   "fault-injection fake: tests inject dial failures into DialTCPOpts",
	"cluster.Cluster.FailAll":      "fault-injection fake: the dne recovery tests fail every in-process mailbox the way the TCP router tears a mesh down",
	"cluster.WireKinds":            "fault-injection fake: tests enumerate the wire kinds to fault each one",
	"cluster.DialTCP":              "used by benchmarks/e2e/wrap_test.go",
	"cluster.ConnLostError.Unwrap": "errors.Is and errors.As reach it through an interface literal inside package errors",
	"cluster.Comm.Barrier":         "benchmarks/e2e's timing wrapper forwards it to the Comm it wraps, so Comm keeps it while that module does; tests use it to line ranks up",
	"cluster.node.Barrier":         "implements cluster.Comm.Barrier (see that entry)",
	"cluster.TCPNode.Barrier":      "implements cluster.Comm.Barrier (see that entry)",
	"cluster.FaultComm.Barrier":    "implements cluster.Comm.Barrier (see that entry)",
	"gen.WattsStrogatz":            "test input generator for the dne and methods tests",
	"linttest.Run":                 "the analyzer test harness",
}

// TestExportedFunctionsHaveCallers keeps the internal/ surface minimal: every
// exported function and method under internal/, and every interface method
// declared there, needs a caller in non-test code of this module or of
// benchmarks/e2e, or an allowlist entry saying why not. Code under examples/
// does not count: examples demonstrate the surface, they do not justify it.
// A stale allowlist entry (the name is gone, or it has gained a caller)
// fails too.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	m, err := thisModule()
	if err != nil {
		t.Fatal(err)
	}
	uncalled, declared, err := uncalledSurface(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range uncalled {
		if _, ok := surfaceAllowlist[name]; !ok {
			t.Errorf("%s is declared but no non-test code calls it: delete it, or add it to surfaceAllowlist with the reason it stays", name)
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

// TestUncalledExportsFixture checks the scanner on a planted module; see the
// comments in testdata/surface/internal/a for what each name stands for.
func TestUncalledExportsFixture(t *testing.T) {
	m, err := loadModule(filepath.Join("testdata", "surface"))
	if err != nil {
		t.Fatal(err)
	}
	uncalled, declared, err := uncalledSurface(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a.ExampleOnly",
		"a.Framed.Perimeter",
		"a.Right.Size",
		"a.Shape.Perimeter",
		"a.Square.Perimeter",
		"a.T.TestOnly",
		"a.TestOnly",
		"a.Uncalled",
	}
	if !slices.Equal(uncalled, want) {
		t.Errorf("uncalled = %q, want %q", uncalled, want)
	}
	for _, name := range []string{"a.Cross", "a.Left.Size", "a.Local", "a.Name.String", "a.Shape.Area", "a.Square.Area"} {
		if !declared[name] {
			t.Errorf("%s not seen as declared", name)
		}
	}
}

// TestTreeIsClean runs the full dnelint suite over this repository — the
// same invariant CI enforces via cmd/dnelint: zero findings.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree sweep skipped in -short")
	}
	m, err := thisModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range m.pkgs {
		diags, err := lint.RunAnalyzers(pkg, lint.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s: %s", m.loader.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}

// loadedModule is every non-test package of one module (benchmarks/e2e
// included: the loader maps its imports onto the tree), type-checked by one
// loader.
type loadedModule struct {
	root   string
	loader *lint.Loader
	pkgs   []*lint.Package
}

func loadModule(root string) (*loadedModule, error) {
	loader, err := lint.NewLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := loader.ExpandPatterns(root, []string{"./..."})
	if err != nil {
		return nil, err
	}
	m := &loadedModule{root: root, loader: loader}
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		m.pkgs = append(m.pkgs, pkg)
	}
	return m, nil
}

// thisModule is this repository, loaded once per test binary: the two
// whole-tree checks, TestTreeIsClean and TestExportedFunctionsHaveCallers,
// share one type-check of the module.
var thisModule = sync.OnceValues(func() (*loadedModule, error) { return loadModule(".") })

// uncalledSurface returns, sorted, the names declared under m's internal/
// that no non-test code of m calls (the packages under examples/ left out),
// together with the set of all such names. The names are
// exported functions ("pkg.Func"), exported methods of named types and all
// methods of named interfaces ("pkg.Type.Method"). A reference of a function
// to itself is not a call, and a method's reference to a method of the same
// name (a wrapper forwarding to what it wraps) counts only once the wrapper is
// called. A method counts as called when code selects it (call, method value
// or method expression), or when a type whose method set holds it satisfies
// an interface declared outside the module that has the method, or a module
// interface whose method of that name is called.
func uncalledSurface(m *loadedModule) (uncalled []string, declared map[string]bool, err error) {
	internalDir, err := filepath.Abs(filepath.Join(m.root, "internal"))
	if err != nil {
		return nil, nil, err
	}
	examplesDir, err := filepath.Abs(filepath.Join(m.root, "examples"))
	if err != nil {
		return nil, nil, err
	}
	var pkgs []*lint.Package
	module := map[*types.Package]bool{}
	for _, pkg := range m.pkgs {
		if under(pkg.Dir, examplesDir) {
			continue
		}
		pkgs = append(pkgs, pkg)
		module[pkg.Types] = true
	}

	names := map[*types.Func]string{} // checked declarations -> report name
	called := map[*types.Func]bool{}
	forwards := map[*types.Func][]*types.Func{} // method -> same-name methods it calls
	var named []*types.Named                    // every named type of the module
	for _, pkg := range pkgs {
		inInternal := under(pkg.Dir, internalDir)
		scope := pkg.Types.Scope()
		for _, id := range scope.Names() {
			switch obj := scope.Lookup(id).(type) {
			case *types.Func:
				if inInternal && obj.Exported() {
					names[obj] = pkg.Types.Name() + "." + id
				}
			case *types.TypeName:
				n, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				named = append(named, n)
				if !inInternal {
					continue
				}
				prefix := pkg.Types.Name() + "." + id + "."
				if it, ok := n.Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumExplicitMethods(); i++ {
						m := it.ExplicitMethod(i)
						names[m] = prefix + m.Name()
					}
					continue
				}
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); m.Exported() {
						names[m] = prefix + m.Name()
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var self *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := pkg.TypesInfo.Uses[id].(*types.Func)
					switch {
					case !ok || fn == self:
					case self != nil && self.Type().(*types.Signature).Recv() != nil && fn.Name() == self.Name():
						forwards[self] = append(forwards[self], fn.Origin())
					default:
						called[fn.Origin()] = true
					}
					return true
				})
			}
		}
	}

	// Interfaces that reach a method without the module selecting it: every
	// interface declared outside the module (all its methods), and every
	// interface method the module calls (that method only). Indexed by
	// method name.
	byName := map[string][]*types.Interface{}
	addIface := func(it *types.Interface, only string) {
		for i := 0; i < it.NumMethods(); i++ {
			if name := it.Method(i).Name(); only == "" || name == only {
				byName[name] = append(byName[name], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface), "")
	seen := map[*types.Package]bool{}
	var external func(*types.Package)
	external = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			external(imp)
		}
		if module[p] {
			return
		}
		for _, id := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(id).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it, "")
				}
			}
		}
	}
	for _, pkg := range pkgs {
		external(pkg.Types)
	}

	// Called interface methods and forwarding wrappers reach further
	// methods, which can be interface methods or wrappers in turn: repeat
	// until nothing new is called.
	ifaceSeen := map[*types.Func]bool{}
	for grew := true; grew; {
		before := len(called)
		for fn := range called {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && !ifaceSeen[fn] {
				ifaceSeen[fn] = true
				addIface(recv.Type().Underlying().(*types.Interface), fn.Name())
			}
		}
		for _, n := range named {
			var t types.Type = n
			if !types.IsInterface(n) {
				t = types.NewPointer(n)
			}
			ms := types.NewMethodSet(t)
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj().(*types.Func)
				for _, it := range byName[m.Name()] {
					if types.Implements(t, it) {
						called[m.Origin()] = true
						break
					}
				}
			}
		}
		for w, targets := range forwards {
			if called[w] {
				for _, fn := range targets {
					called[fn] = true
				}
			}
		}
		grew = len(called) > before
	}

	declared = map[string]bool{}
	for fn, name := range names {
		declared[name] = true
		if !called[fn] {
			uncalled = append(uncalled, name)
		}
	}
	slices.Sort(uncalled)
	return uncalled, declared, nil
}

// under reports whether path is dir or lies below it; both are absolute.
func under(path, dir string) bool {
	return strings.HasPrefix(path+string(filepath.Separator), dir+string(filepath.Separator))
}
