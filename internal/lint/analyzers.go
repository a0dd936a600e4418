package lint

import (
	"fmt"
	"strings"
)

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{MapRange, SeedRand, CappedAlloc, CtxLoop, ObsName}
}

// ByName resolves an analyzer selection; an empty selection means the full
// suite. Any name that matches no analyzer is an error, and the error names
// every such name, so a typo never silently drops an analyzer.
func ByName(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return All(), nil
	}
	var out []*Analyzer
	var unknown []string
	for _, n := range names {
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
			}
		}
		if !found {
			unknown = append(unknown, fmt.Sprintf("%q", n))
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("lint: unknown analyzer(s) %s", strings.Join(unknown, ", "))
	}
	return out, nil
}
