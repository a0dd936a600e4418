// Package det is the maprange golden corpus for deterministic packages.
//
//lint:corpus deterministic
package det

import "sort"

func flagged(m map[string]int) int {
	total := 0
	for _, v := range m { // want `range over map in deterministic package`
		total += v
	}
	return total
}

// Regression: the real finding fixed in methods.Descriptor.ResolveSpec —
// resolving params by ranging the map made the first reported unknown
// param nondeterministic.
func flaggedFirstError(params map[string]any, declared map[string]bool) string {
	for name := range params { // want `range over map in deterministic package`
		if !declared[name] {
			return name
		}
	}
	return ""
}

func keyCollectIdiom(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // collect-then-sort: recognized, never flagged
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func suppressed(m map[string]int) int {
	total := 0
	//lint:ordered commutative sum; iteration order cannot reach output
	for _, v := range m {
		total += v
	}
	return total
}

func suppressedOnLoopLine(m map[string]int) int {
	total := 0
	for _, v := range m { //lint:ordered commutative sum; iteration order cannot reach output
		total += v
	}
	return total
}

// A marker with no reason silences nothing: the finding stands.
func bareOrdered(m map[string]int) int {
	total := 0
	//lint:ordered
	for _, v := range m { // want `range over map in deterministic package`
		total += v
	}
	return total
}

// A justified marker covers its own line and the next one only.
func markerTooFarAbove(m map[string]int) int {
	//lint:ordered commutative sum; iteration order cannot reach output
	total := 0
	for _, v := range m { // want `range over map in deterministic package`
		total += v
	}
	return total
}

func sliceRangeClean(s []int) int {
	total := 0
	for _, v := range s {
		total += v
	}
	return total
}
