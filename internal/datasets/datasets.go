// Package datasets provides named synthetic stand-ins for the paper's
// evaluation datasets (Table 2 and §7.7). The real graphs (Pokec … WebUK,
// SNAP road networks) are not redistributable with this repository, so each
// stand-in matches its original's degree skew (RMAT recursive structure,
// web-like graphs use a heavier diagonal) and edge factor, scaled down by
// roughly 64× so every experiment runs on one host. Pass a positive shift to
// Build to scale any dataset back up toward paper size.
package datasets

import (
	"fmt"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// Spec describes one synthetic stand-in.
type Spec struct {
	// Name matches the paper's dataset label.
	Name string
	// Scale: the stand-in has 2^Scale vertices by default.
	Scale int
	// EdgeFactor: edge samples per vertex (paper's EF column).
	EdgeFactor int
	// Params: RMAT quadrant probabilities (web graphs are more diagonal).
	Params gen.RMATParams
	Seed   int64
	// PaperVertices/PaperEdges record the original's size for reporting.
	PaperVertices string
	PaperEdges    string
}

// Build generates the graph with 2^(Scale+shift) vertices (shift may be
// negative for quick tests).
func (s Spec) Build(shift int) *graph.Graph {
	sc := s.Scale + shift
	if sc < 4 {
		sc = 4
	}
	return gen.RMATWith(s.Params, sc, s.EdgeFactor, s.Seed)
}

func (s Spec) String() string {
	return fmt.Sprintf("%s(2^%d,EF%d)", s.Name, s.Scale, s.EdgeFactor)
}

var social = gen.Graph500
var webby = gen.RMATParams{A: 0.65, B: 0.15, C: 0.15, D: 0.05}

// Skewed are the seven skewed stand-ins of Table 2, in the paper's order.
var Skewed = []Spec{
	{Name: "Pokec", Scale: 14, EdgeFactor: 19, Params: social, Seed: 101, PaperVertices: "1.63M", PaperEdges: "30.62M"},
	{Name: "Flickr", Scale: 14, EdgeFactor: 14, Params: social, Seed: 102, PaperVertices: "2.30M", PaperEdges: "33.14M"},
	{Name: "LiveJ.", Scale: 15, EdgeFactor: 14, Params: social, Seed: 103, PaperVertices: "4.84M", PaperEdges: "68.47M"},
	{Name: "Orkut", Scale: 14, EdgeFactor: 38, Params: social, Seed: 104, PaperVertices: "3.07M", PaperEdges: "117.18M"},
	{Name: "Twitter", Scale: 15, EdgeFactor: 32, Params: social, Seed: 105, PaperVertices: "41.65M", PaperEdges: "1.46B"},
	{Name: "FriendSter", Scale: 15, EdgeFactor: 27, Params: social, Seed: 106, PaperVertices: "65.60M", PaperEdges: "1.80B"},
	{Name: "WebUK", Scale: 15, EdgeFactor: 32, Params: webby, Seed: 107, PaperVertices: "105.15M", PaperEdges: "3.72B"},
}

// Mid returns the four mid-size stand-ins used by Fig. 6 and Table 4
// (Pokec, Flickr, LiveJ., Orkut).
func Mid() []Spec { return Skewed[:4] }

// RoadSpec describes one §7.7 road-network stand-in.
type RoadSpec struct {
	Name       string
	Rows, Cols int
	Seed       int64
}

// Build generates the lattice. shift scales the side lengths by 2^(shift/2)
// steps (0 = default).
func (r RoadSpec) Build(shift int) *graph.Graph {
	f := 1.0
	for i := 0; i < shift; i++ {
		f *= 1.4
	}
	for i := 0; i > shift; i-- {
		f /= 1.4
	}
	rows := int(float64(r.Rows) * f)
	cols := int(float64(r.Cols) * f)
	if rows < 8 {
		rows = 8
	}
	if cols < 8 {
		cols = 8
	}
	return gen.Road(rows, cols, r.Seed)
}

// Roads are stand-ins for the California / Pennsylvania / Texas road
// networks (~1/10 linear scale of the originals).
var Roads = []RoadSpec{
	{Name: "Calif.", Rows: 200, Cols: 220, Seed: 201},
	{Name: "Penn.", Rows: 150, Cols: 160, Seed: 202},
	{Name: "Tex.", Rows: 170, Cols: 180, Seed: 203},
}
