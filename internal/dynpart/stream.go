// Package dynpart is the event vocabulary of the dynamic-graph extension
// the paper lists as future work (§8, citing Leopard, Huang & Abadi
// VLDB'16): the edge insertions and deletions internal/live applies, and
// Churn, the seeded update stream that drives it.
package dynpart

import (
	"math/rand"

	"github.com/distributedne/dne/internal/graph"
)

// Op is the kind of a stream event.
type Op uint8

// Stream operations.
const (
	Add Op = iota
	Remove
)

// Event is one update in a dynamic-graph stream.
type Event struct {
	Op   Op
	Edge graph.Edge
}

// Churn generates a reproducible update stream against a base graph:
// insertions drawn uniformly from the base edges currently absent, deletions
// drawn uniformly from the present ones, with the given deletion
// probability. Deleted edges can be re-inserted later. It is the workload
// of examples/live, expbench's extdyn and the live benchmark workload
// (social-network churn: mostly growth, some unfriending).
func Churn(base *graph.Graph, events int, pDelete float64, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	all := base.Edges()
	absent := make([]graph.Edge, len(all))
	for i, p := range rng.Perm(len(all)) {
		absent[i] = all[p]
	}
	present := make([]graph.Edge, 0, len(all))
	out := make([]Event, 0, events)
	for len(out) < events {
		doDelete := len(present) > 0 && rng.Float64() < pDelete
		if !doDelete && len(absent) == 0 {
			doDelete = len(present) > 0
			if !doDelete {
				break // base graph has no edges at all
			}
		}
		if doDelete {
			i := rng.Intn(len(present))
			e := present[i]
			out = append(out, Event{Op: Remove, Edge: e})
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
			absent = append(absent, e)
			continue
		}
		i := rng.Intn(len(absent))
		e := absent[i]
		absent[i] = absent[len(absent)-1]
		absent = absent[:len(absent)-1]
		out = append(out, Event{Op: Add, Edge: e})
		present = append(present, e)
	}
	return out
}
