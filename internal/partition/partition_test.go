package partition

import (
	"testing"
	"testing/quick"

	"github.com/distributedne/dne/internal/graph"
)

func triangle() *graph.Graph {
	return graph.FromEdges(0, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
}

func TestValidate(t *testing.T) {
	g := triangle()
	p := New(2, g.NumEdges())
	if err := p.Validate(g); err == nil {
		t.Error("unassigned partitioning must not validate")
	}
	p.Owner = []int32{0, 1, 0}
	if err := p.Validate(g); err != nil {
		t.Error(err)
	}
	p.Owner[1] = 5
	if err := p.Validate(g); err == nil {
		t.Error("out-of-range owner must not validate")
	}
	p.Owner = []int32{0}
	if err := p.Validate(g); err == nil {
		t.Error("wrong length must not validate")
	}
}

func TestMeasureTriangle(t *testing.T) {
	g := triangle()
	p := &Partitioning{NumParts: 2, Owner: []int32{0, 1, 0}}
	q := p.Measure(g)
	// V(E0) = {0,1,2}, V(E1) = {1,2} → replicas 5, RF 5/3.
	if q.Replicas != 5 {
		t.Errorf("Replicas = %d, want 5", q.Replicas)
	}
	if want := 5.0 / 3.0; q.ReplicationFactor != want {
		t.Errorf("RF = %f, want %f", q.ReplicationFactor, want)
	}
	if q.VertexCuts != 2 {
		t.Errorf("VertexCuts = %d, want 2", q.VertexCuts)
	}
	if q.MaxPartEdges != 2 {
		t.Errorf("MaxPartEdges = %d", q.MaxPartEdges)
	}
}

func TestSinglePartitionIsIdeal(t *testing.T) {
	g := triangle()
	p := &Partitioning{NumParts: 1, Owner: []int32{0, 0, 0}}
	q := p.Measure(g)
	if q.ReplicationFactor != 1.0 {
		t.Errorf("RF = %f, want 1.0", q.ReplicationFactor)
	}
	if q.VertexCuts != 0 {
		t.Errorf("VertexCuts = %d, want 0", q.VertexCuts)
	}
	if q.EdgeBalance != 1.0 || q.VertexBalance != 1.0 {
		t.Error("single partition must be perfectly balanced")
	}
}

func TestEdgeCounts(t *testing.T) {
	p := &Partitioning{NumParts: 3, Owner: []int32{0, 1, 1}}
	counts := p.EdgeCounts()
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 0 {
		t.Errorf("EdgeCounts = %v", counts)
	}
}

func TestQuickRFBounds(t *testing.T) {
	// Property: for any assignment of the triangle and any valid partition
	// count, 1 ≤ RF ≤ min(numParts, maxDegree... here ≤ 2 per vertex with 2
	// incident edges) and replicas ≥ covered vertices.
	f := func(o1, o2, o3 uint8) bool {
		const parts = 4
		g := triangle()
		p := &Partitioning{NumParts: parts, Owner: []int32{
			int32(o1 % parts), int32(o2 % parts), int32(o3 % parts)}}
		q := p.Measure(g)
		return q.ReplicationFactor >= 1.0 &&
			q.ReplicationFactor <= 2.0 && // each vertex has degree 2
			q.VertexCuts >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBalanceAllZero(t *testing.T) {
	b, max := balance([]int64{0, 0})
	if b != 1 || max != 0 {
		t.Errorf("balance of zeros = %f,%d", b, max)
	}
}
