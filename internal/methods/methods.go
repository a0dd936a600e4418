// Package methods is the self-registering registry of edge-partitioning
// methods. Each method package declares itself from an init function via
// Register, supplying a Descriptor with its canonical name, aliases,
// documented parameters (with types, defaults and bounds) and a factory.
// Everything name-driven — CLI -method help, the HTTP /api/methods
// endpoint, the experiments, the conformance tests — is generated from the
// descriptors, so registering here is the single step that makes a new
// partitioner reachable from every tool.
//
// A descriptor's ParamSpec is the only place a parameter default is
// written. New and PartitionSource resolve every spec against it, so the
// partitioners read each declared parameter as set — a zero is the value
// zero, inside the declared bounds — and fall back to no constant of their
// own. The one kind of default not written as a constant is a derived one
// (a zero that stands for a value computed from the input, such as metis's
// coarsest_size), which the parameter's Doc states.
//
// Importing a method package triggers its registration; import
// internal/methods/all for the full set.
package methods

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/distributedne/dne/internal/partition"
)

// ParamKind is the declared type of a method parameter.
type ParamKind string

const (
	Float ParamKind = "float"
	Int   ParamKind = "int"
	Bool  ParamKind = "bool"
)

// ParamSpec declares one tunable of a method: its name, type, default and
// (for numeric parameters) inclusive bounds. Min/Max of 0 with HasBounds
// unset mean unbounded.
type ParamSpec struct {
	Name    string    `json:"name"`
	Kind    ParamKind `json:"kind"`
	Default any       `json:"default"`
	Doc     string    `json:"doc"`
	// Min/Max bound numeric parameters inclusively when HasBounds is set;
	// they serialize so API clients can self-correct out-of-range values.
	Min       float64 `json:"min,omitempty"`
	Max       float64 `json:"max,omitempty"`
	HasBounds bool    `json:"bounded,omitempty"`
}

// Descriptor declares one partitioning method.
type Descriptor struct {
	// Name is the canonical lower-case method name.
	Name string `json:"name"`
	// Aliases are accepted lookup spellings (case-insensitive).
	Aliases []string `json:"aliases,omitempty"`
	// Summary is a one-line description for generated help.
	Summary string `json:"summary"`
	// Streams reports that the method partitions straight from an edge
	// stream: Register sets it when the Factory's partitioner is a
	// partition.StreamPartitioner, which PartitionSource feeds sources
	// without materializing them.
	Streams bool `json:"streams,omitempty"`
	// Params declares every parameter the method reads from Spec.Params.
	Params []ParamSpec `json:"params,omitempty"`
	// Factory returns a fresh partitioner. Per-run configuration travels in
	// the Spec passed to Partition, so factories are cheap and stateless.
	Factory func() partition.Partitioner `json:"-"`
}

var registry = map[string]Descriptor{} // canonical name -> descriptor
var aliases = map[string]string{}      // lower-case alias -> canonical name

// Register adds a method to the registry. It is meant to be called from a
// method package's init and panics on invalid or duplicate descriptors (a
// default not of its param's kind or outside its bounds included) — both
// are programmer errors caught by any test that imports the package.
func Register(d Descriptor) {
	name := strings.ToLower(d.Name)
	if name == "" || d.Factory == nil {
		panic(fmt.Sprintf("methods: Register with empty name or nil factory: %+v", d))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("methods: duplicate registration of %q", name))
	}
	if prev, dup := aliases[name]; dup {
		panic(fmt.Sprintf("methods: name %q already registered as alias of %q", name, prev))
	}
	seen := map[string]bool{}
	for _, p := range d.Params {
		if p.Name == "" || seen[p.Name] {
			panic(fmt.Sprintf("methods: %q declares empty or duplicate param %q", name, p.Name))
		}
		seen[p.Name] = true
		// ResolveSpec stores a default as declared, so it must already be a
		// valid value of the param's kind: what the partitioner reads must
		// not depend on whether the caller passed the default explicitly.
		if v, err := coerce(p, p.Default); err != nil || v != p.Default {
			panic(fmt.Sprintf("methods: %q param %q default %#v is not a valid %s", name, p.Name, p.Default, p.Kind))
		}
	}
	d.Name = name
	_, d.Streams = d.Factory().(partition.StreamPartitioner)
	registry[name] = d
	aliases[name] = name
	for _, a := range d.Aliases {
		a = strings.ToLower(a)
		if prev, dup := aliases[a]; dup {
			panic(fmt.Sprintf("methods: alias %q of %q already taken by %q", a, name, prev))
		}
		aliases[a] = name
	}
}

// Lookup resolves a method name or alias (case-insensitive).
func Lookup(name string) (Descriptor, bool) {
	canon, ok := aliases[strings.ToLower(name)]
	if !ok {
		return Descriptor{}, false
	}
	return registry[canon], true
}

// Names returns the canonical method names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Descriptors returns every registered descriptor, sorted by name.
func Descriptors() []Descriptor {
	ds := make([]Descriptor, 0, len(registry))
	for _, name := range Names() {
		ds = append(ds, registry[name])
	}
	return ds
}

// ParamError reports a spec that does not match a method's declared
// parameters. Declared carries the method's full parameter specs so callers
// (the HTTP handler, CLIs) can surface them.
type ParamError struct {
	Method   string
	Reason   string
	Declared []ParamSpec
}

func (e *ParamError) Error() string {
	names := make([]string, len(e.Declared))
	for i, p := range e.Declared {
		names[i] = fmt.Sprintf("%s (%s, default %v)", p.Name, p.Kind, p.Default)
	}
	declared := "none"
	if len(names) > 0 {
		declared = strings.Join(names, ", ")
	}
	return fmt.Sprintf("methods: %s: %s; declared params: %s", e.Method, e.Reason, declared)
}

// ResolveSpec validates spec.Params against d's declarations, coerces
// types, and fills every unset parameter with its declared default. The
// input spec is not mutated.
func (d Descriptor) ResolveSpec(spec partition.Spec) (partition.Spec, error) {
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	declared := make(map[string]ParamSpec, len(d.Params))
	for _, p := range d.Params {
		declared[p.Name] = p
	}
	resolved := make(map[string]any, len(d.Params))
	// Resolve in sorted name order: with several offending params the
	// ParamError must name the same one on every run, not whichever a map
	// walk happens to visit first.
	names := make([]string, 0, len(spec.Params))
	for name := range spec.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		value := spec.Params[name]
		p, ok := declared[name]
		if !ok {
			return spec, &ParamError{Method: d.Name,
				Reason: fmt.Sprintf("unknown param %q", name), Declared: d.Params}
		}
		coerced, err := coerce(p, value)
		if err != nil {
			return spec, &ParamError{Method: d.Name, Reason: err.Error(), Declared: d.Params}
		}
		resolved[name] = coerced
	}
	for _, p := range d.Params {
		if _, set := resolved[p.Name]; !set {
			resolved[p.Name] = p.Default
		}
	}
	spec.Params = resolved
	return spec, nil
}

// coerce checks value against p's kind and bounds, converting JSON-decoded
// float64 values to the declared type.
func coerce(p ParamSpec, value any) (any, error) {
	switch p.Kind {
	case Bool:
		b, ok := value.(bool)
		if !ok {
			return nil, fmt.Errorf("param %q wants bool, got %T", p.Name, value)
		}
		return b, nil
	case Int:
		var n int
		switch v := value.(type) {
		case int:
			n = v
		case int64:
			n = int(v)
		case float64:
			if v != math.Trunc(v) {
				return nil, fmt.Errorf("param %q wants integer, got %v", p.Name, v)
			}
			n = int(v)
		default:
			return nil, fmt.Errorf("param %q wants int, got %T", p.Name, value)
		}
		if p.HasBounds && (float64(n) < p.Min || float64(n) > p.Max) {
			return nil, fmt.Errorf("param %q = %d outside [%g, %g]", p.Name, n, p.Min, p.Max)
		}
		return n, nil
	case Float:
		var f float64
		switch v := value.(type) {
		case float64:
			f = v
		case float32:
			f = float64(v)
		case int:
			f = float64(v)
		case int64:
			f = float64(v)
		default:
			return nil, fmt.Errorf("param %q wants float, got %T", p.Name, value)
		}
		if p.HasBounds && (f < p.Min || f > p.Max) {
			return nil, fmt.Errorf("param %q = %g outside [%g, %g]", p.Name, f, p.Min, p.Max)
		}
		return f, nil
	}
	return nil, fmt.Errorf("param %q has unknown kind %q", p.Name, p.Kind)
}

// New returns the named partitioner together with the spec resolved against
// its descriptor (params validated, defaulted and coerced). It is the one
// entry point every CLI, server and harness uses.
func New(name string, spec partition.Spec) (partition.Partitioner, partition.Spec, error) {
	d, ok := Lookup(name)
	if !ok {
		return nil, spec, fmt.Errorf("methods: unknown method %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
	resolved, err := d.ResolveSpec(spec)
	if err != nil {
		return nil, spec, err
	}
	return d.Factory(), resolved, nil
}
