package gen

import (
	"flag"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/graph"
)

// TestSpecGraph: every kind the CLIs accept builds exactly the graph of its
// generator, from the parameters parsed off the shared flags.
func TestSpecGraph(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want *graph.Graph
	}{
		{[]string{"-kind", "rmat", "-scale", "8", "-ef", "4", "-seed", "3"}, RMAT(8, 4, 3)},
		{[]string{"-kind", "powerlaw", "-n", "500", "-alpha", "2.2", "-seed", "3"}, PowerLaw(500, 2.2, 3)},
		{[]string{"-kind", "er", "-n", "300", "-ef", "4", "-seed", "3"}, ER(300, 1200, 3)},
		{[]string{"-kind", "road", "-rows", "12", "-cols", "9", "-seed", "3"}, Road(12, 9, 3)},
		{[]string{"-kind", "ringcomplete", "-n", "6"}, RingPlusComplete(6)},
		{[]string{"-kind", "star", "-n", "40"}, Star(40)},
	} {
		spec := Spec{Kind: "rmat", Scale: 16, EF: 16, N: 1 << 16, Alpha: 2.4, Rows: 200, Cols: 220, Seed: 42}
		fs := flag.NewFlagSet("gen", flag.ContinueOnError)
		spec.RegisterFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		g, err := spec.Graph()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if g.NumVertices() != tc.want.NumVertices() || !slices.Equal(g.Edges(), tc.want.Edges()) {
			t.Errorf("%v: |V|=%d |E|=%d, want |V|=%d |E|=%d", tc.args,
				g.NumVertices(), g.NumEdges(), tc.want.NumVertices(), tc.want.NumEdges())
		}
	}
	if _, err := (Spec{Kind: "bogus"}).Graph(); err == nil {
		t.Error(`Spec{Kind: "bogus"}.Graph() succeeded, want an unknown-kind error`)
	}
}
