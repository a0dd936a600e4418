package gen

import (
	"flag"
	"fmt"

	"github.com/distributedne/dne/internal/graph"
)

// Spec names one synthetic graph the way the command-line tools take it: a
// generator kind plus the parameters that kind reads.
type Spec struct {
	Kind       string  // rmat | powerlaw | er | road | ringcomplete | star
	Scale      int     // rmat: 2^Scale vertices
	EF         int     // rmat/er: edge factor
	N          int     // powerlaw/er/star: vertices; ringcomplete: clique size
	Alpha      float64 // powerlaw scaling parameter
	Rows, Cols int     // road lattice
	Seed       int64
}

// RegisterFlags declares -kind, -scale, -ef, -n, -alpha, -rows, -cols and
// -seed on fs, bound to s's fields, with s's current values as defaults.
func (s *Spec) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Kind, "kind", s.Kind, "rmat | powerlaw | er | road | ringcomplete | star")
	fs.IntVar(&s.Scale, "scale", s.Scale, "rmat: 2^scale vertices")
	fs.IntVar(&s.EF, "ef", s.EF, "rmat/er: edge factor")
	fs.IntVar(&s.N, "n", s.N, "powerlaw/er/star: vertices; ringcomplete: clique size")
	fs.Float64Var(&s.Alpha, "alpha", s.Alpha, "powerlaw scaling parameter")
	fs.IntVar(&s.Rows, "rows", s.Rows, "road: rows")
	fs.IntVar(&s.Cols, "cols", s.Cols, "road: cols")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "random seed")
}

// Graph generates the graph s names.
func (s Spec) Graph() (*graph.Graph, error) {
	switch s.Kind {
	case "rmat":
		return RMAT(s.Scale, s.EF, s.Seed), nil
	case "powerlaw":
		return PowerLaw(uint32(s.N), s.Alpha, s.Seed), nil
	case "er":
		return ER(uint32(s.N), int64(s.N*s.EF), s.Seed), nil
	case "road":
		return Road(s.Rows, s.Cols, s.Seed), nil
	case "ringcomplete":
		return RingPlusComplete(s.N), nil
	case "star":
		return Star(uint32(s.N)), nil
	}
	return nil, fmt.Errorf("unknown kind %q", s.Kind)
}
