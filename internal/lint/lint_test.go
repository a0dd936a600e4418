package lint_test

import (
	"path/filepath"
	"testing"

	"github.com/distributedne/dne/internal/lint"
	"github.com/distributedne/dne/internal/lint/linttest"
)

func corpus(parts ...string) string {
	return filepath.Join(append([]string{"testdata"}, parts...)...)
}

func TestMapRangeCorpus(t *testing.T) {
	linttest.Run(t, corpus("maprange", "det"), lint.MapRange)
}

func TestMapRangeOutsideDeterministicSet(t *testing.T) {
	linttest.Run(t, corpus("maprange", "nondet"), lint.MapRange)
}

func TestCappedAllocCorpus(t *testing.T) {
	linttest.Run(t, corpus("cappedalloc", "corpus"), lint.CappedAlloc)
}

func TestObsNameCorpus(t *testing.T) {
	linttest.Run(t, corpus("obsname", "corpus"), lint.ObsName)
}

// TestDeterministicPathScope pins the deterministic package set: the golden
// checksums only mean something if the partition/method/dne/graph layers
// actually sit inside it.
func TestDeterministicPathScope(t *testing.T) {
	det := []string{
		"github.com/distributedne/dne/internal/partition",
		"github.com/distributedne/dne/internal/methods",
		"github.com/distributedne/dne/internal/methods/all",
		"github.com/distributedne/dne/internal/dne",
		"github.com/distributedne/dne/internal/graph",
		"github.com/distributedne/dne/internal/nepart",
		"github.com/distributedne/dne/internal/dynpart",
		"github.com/distributedne/dne/internal/gen",
	}
	for _, p := range det {
		if !lint.IsDeterministicPath(p) {
			t.Errorf("IsDeterministicPath(%q) = false, want true", p)
		}
	}
	nondet := []string{
		"github.com/distributedne/dne/internal/obs",
		"github.com/distributedne/dne/internal/store",
		"github.com/distributedne/dne/internal/bench",
		"github.com/distributedne/dne/cmd/loadgen",
		"github.com/distributedne/dne/internal/lint",
	}
	for _, p := range nondet {
		if lint.IsDeterministicPath(p) {
			t.Errorf("IsDeterministicPath(%q) = true, want false", p)
		}
	}
}
