package methods_test

import (
	"context"
	"errors"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/partition"
)

func newMethod(t testing.TB, name string, parts int) (partition.Partitioner, partition.Spec) {
	t.Helper()
	pr, spec, err := methods.New(name, partition.NewSpec(parts, 42))
	if err != nil {
		t.Fatal(err)
	}
	return pr, spec
}

func TestEveryNameResolvesAndPartitions(t *testing.T) {
	g := gen.RMAT(8, 4, 1)
	for _, name := range methods.Names() {
		pr, spec := newMethod(t, name, 4)
		res, err := pr.Partition(context.Background(), g, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Partitioning.Validate(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestAliases(t *testing.T) {
	for _, alias := range []string{"DNE", "d.ne", "2d", "rand", "parmetis", "x.p.", "h.g."} {
		if _, ok := methods.Lookup(alias); !ok {
			t.Errorf("alias %q did not resolve", alias)
		}
	}
}

func TestUnknownRejected(t *testing.T) {
	if _, _, err := methods.New("definitely-not-a-method", partition.NewSpec(4, 1)); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestDescriptorsDeclareFactoriesAndDocs(t *testing.T) {
	ds := methods.Descriptors()
	if len(ds) < 16 {
		t.Fatalf("expected at least 16 registered methods, got %d", len(ds))
	}
	for _, d := range ds {
		if d.Factory == nil {
			t.Errorf("%s: nil factory", d.Name)
		}
		if d.Summary == "" {
			t.Errorf("%s: empty summary", d.Name)
		}
		for _, p := range d.Params {
			if p.Doc == "" {
				t.Errorf("%s: param %s has no doc", d.Name, p.Name)
			}
			if p.Default == nil {
				t.Errorf("%s: param %s has no default", d.Name, p.Name)
			}
		}
	}
}

func TestUnknownParamRejectedWithDeclaredList(t *testing.T) {
	spec := partition.Spec{NumParts: 4, Seed: 1, Params: map[string]any{"no_such_param": 3.0}}
	_, _, err := methods.New("dne", spec)
	if err == nil {
		t.Fatal("unknown param accepted")
	}
	var perr *methods.ParamError
	if !errors.As(err, &perr) {
		t.Fatalf("want *ParamError, got %T: %v", err, err)
	}
	if perr.Method != "dne" || len(perr.Declared) == 0 {
		t.Errorf("ParamError not populated: %+v", perr)
	}
}

func TestParamTypeAndBoundsValidation(t *testing.T) {
	cases := []struct {
		name  string
		param string
		value any
	}{
		{"dne", "alpha", 0.5},            // below min
		{"dne", "lambda", 2.0},           // above max
		{"dne", "single_expansion", 3.0}, // wrong type
		{"dne", "max_iterations", 1.5},   // non-integer
		{"fennel", "gamma", true},        // wrong type
		{"hybrid", "threshold", -1.0},    // below min
	}
	for _, c := range cases {
		spec := partition.Spec{NumParts: 4, Seed: 1, Params: map[string]any{c.param: c.value}}
		if _, _, err := methods.New(c.name, spec); err == nil {
			t.Errorf("%s: %s=%v accepted", c.name, c.param, c.value)
		}
	}
}

func TestDefaultsAppliedByResolve(t *testing.T) {
	_, spec, err := methods.New("dne", partition.NewSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Float("alpha", -1); got != 1.1 {
		t.Errorf("alpha default not applied: %v", got)
	}
	if got := spec.Float("lambda", -1); got != 0.1 {
		t.Errorf("lambda default not applied: %v", got)
	}
	// JSON-style float input for an int param coerces to int.
	_, spec, err = methods.New("spinner", partition.Spec{NumParts: 4, Seed: 1, Params: map[string]any{"iterations": 8.0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Int("iterations", -1); got != 8 {
		t.Errorf("iterations = %v, want 8", got)
	}
}

func TestZeroParamsDefaulted(t *testing.T) {
	g := gen.RMAT(7, 4, 1)
	pr, spec := newMethod(t, "dne", 2)
	if _, err := pr.Partition(context.Background(), g, spec); err != nil {
		t.Fatalf("zero-params dne failed: %v", err)
	}
}
