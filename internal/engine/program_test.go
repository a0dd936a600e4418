package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// prProgram re-implements PageRank as a user Program; it must match the
// built-in within float tolerance.
type prProgram struct {
	n       float64
	deg     []int64
	damping float64
}

func (p prProgram) Init(graph.Vertex) float64 { return 1 / p.n }
func (p prProgram) Gather(u graph.Vertex, uVal float64, _ graph.Vertex) float64 {
	return uVal / float64(p.deg[u])
}
func (p prProgram) Apply(_ graph.Vertex, cur, sum float64) (float64, bool) {
	return (1-p.damping)/p.n + p.damping*sum, true
}

func TestProgramMatchesBuiltinPageRank(t *testing.T) {
	g := gen.RMAT(9, 8, 3)
	e := buildEngineR(t, g, 4)
	const iters = 15
	builtin := e.PageRank(iters, 0.85)
	prog := prProgram{n: float64(g.NumVertices()), deg: g.Degrees(), damping: 0.85}
	custom := e.Run(prog, iters)
	for v := range builtin {
		if g.Degree(graph.Vertex(v)) == 0 {
			continue
		}
		if math.Abs(builtin[v]-custom[v]) > 1e-12 {
			t.Fatalf("vertex %d: builtin %.15f custom %.15f", v, builtin[v], custom[v])
		}
	}
}

// degreeProgram converges in one productive superstep: each vertex counts
// its neighbors.
type degreeProgram struct{}

func (degreeProgram) Init(graph.Vertex) float64                          { return 0 }
func (degreeProgram) Gather(graph.Vertex, float64, graph.Vertex) float64 { return 1 }
func (degreeProgram) Apply(_ graph.Vertex, cur, sum float64) (float64, bool) {
	return sum, sum != cur
}

func TestProgramQuiescenceStopsRun(t *testing.T) {
	g := gen.RMAT(8, 4, 1)
	e := buildEngineR(t, g, 4)
	e.ResetStats()
	vals := e.Run(degreeProgram{}, 0)
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.Degree(v) == 0 {
			continue
		}
		if vals[v] != float64(g.Degree(v)) {
			t.Fatalf("vertex %d: %v, want %d", v, vals[v], g.Degree(v))
		}
	}
	// One productive superstep + one quiescent confirmation.
	if e.Supersteps > 2 {
		t.Errorf("supersteps %d, want <= 2", e.Supersteps)
	}
}

func TestProgramMaxSuperstepsHonored(t *testing.T) {
	// A program that always reports change must stop at the cap.
	g := gen.RMAT(8, 4, 2)
	e := buildEngineR(t, g, 2)
	e.ResetStats()
	e.Run(prProgram{n: float64(g.NumVertices()), deg: g.Degrees(), damping: 0.85}, 7)
	if e.Supersteps != 7 {
		t.Errorf("supersteps %d, want 7", e.Supersteps)
	}
}

// cancelProgram's contributions cancel or vanish depending on the order
// they are added in: ±1e16 and 1, whose sum rounds away a 1 beside 1e16.
type cancelProgram struct{}

func (cancelProgram) Init(graph.Vertex) float64 { return -7 }
func (cancelProgram) Gather(u graph.Vertex, _ float64, _ graph.Vertex) float64 {
	return [3]float64{1e16, -1e16, 1}[u%3]
}
func (cancelProgram) Apply(_ graph.Vertex, _, sum float64) (float64, bool) { return sum, false }

// TestProgramSummationOrder pins Run's documented summation order bit for
// bit against a reference computed from g and the owners alone: each
// partition sums a vertex's neighbours in ascending id order, and the
// partial sums are added in partition order.
func TestProgramSummationOrder(t *testing.T) {
	const parts = 5
	g := gen.RMAT(9, 8, 3)
	pt := partition.New(parts, g.NumEdges())
	rng := rand.New(rand.NewSource(9))
	for i := range pt.Owner {
		pt.Owner[i] = int32(rng.Intn(parts))
	}
	got := New(g, pt).Run(cancelProgram{}, 1)

	n := int(g.NumVertices())
	nbrs := make([][][]graph.Vertex, parts)
	for q := range nbrs {
		nbrs[q] = make([][]graph.Vertex, n)
	}
	for i, o := range pt.Owner {
		ed := g.Edge(int64(i))
		nbrs[o][ed.U] = append(nbrs[o][ed.U], ed.V)
		nbrs[o][ed.V] = append(nbrs[o][ed.V], ed.U)
	}
	// reference sums in ascending or descending neighbour order, and over
	// the partitions in id order or in reverse.
	reference := func(ascending, inOrder bool) []float64 {
		want := make([]float64, n)
		for v := range want {
			held := false
			var total float64
			for i := range nbrs {
				q := i
				if !inOrder {
					q = parts - 1 - i
				}
				ns := slices.Clone(nbrs[q][v])
				if len(ns) == 0 {
					continue
				}
				slices.Sort(ns)
				if !ascending {
					slices.Reverse(ns)
				}
				var partial float64
				for _, u := range ns {
					partial += cancelProgram{}.Gather(u, 0, graph.Vertex(v))
				}
				total += partial
				held = true
			}
			want[v] = total
			if !held {
				want[v] = cancelProgram{}.Init(graph.Vertex(v))
			}
		}
		return want
	}
	want := reference(true, true)
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("vertex %d: Run summed %v, the documented order gives %v", v, got[v], want[v])
		}
	}
	if slices.Equal(want, reference(false, true)) || slices.Equal(want, reference(true, false)) {
		t.Fatal("the program does not tell the documented order from a reversed one")
	}
}
