package dynpart

import (
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

func TestChurnStreamShapes(t *testing.T) {
	g := gen.RMAT(8, 8, 1)
	ev := Churn(g, 2000, 0.3, 7)
	if len(ev) != 2000 {
		t.Fatalf("got %d events", len(ev))
	}
	adds, dels := 0, 0
	for _, e := range ev {
		if e.Op == Add {
			adds++
		} else {
			dels++
		}
	}
	if dels == 0 || adds == 0 {
		t.Fatalf("degenerate stream: %d adds %d dels", adds, dels)
	}
	// Replaying must never double-add or miss-remove: every event changes
	// the edge set.
	present := make(map[graph.Edge]bool)
	for i, e := range ev {
		c := e.Edge.Canon()
		if c.U == c.V || present[c] == (e.Op == Add) {
			t.Fatalf("event %d (%+v) is a no-op", i, e)
		}
		present[c] = e.Op == Add
	}
}
