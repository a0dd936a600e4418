package experiments

import (
	"fmt"
	"os"

	"github.com/distributedne/dne/internal/bench"
	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/powerlaw"
)

// Extension experiments: not tables or figures of the paper, but executable
// versions of its §8 dynamic-graph future-work direction and the §6
// power-law premise check. They appear in expbench under ext*.

// ExtDynamic seeds a live graph from a Distributed NE result and tracks RF
// and balance as a churn stream (20% deletions) applies, comparing the
// maintained partitioning against periodic full re-partitioning.
func ExtDynamic(o Options) error {
	scale := 12 + o.Shift
	if scale < 8 {
		scale = 8
	}
	snapshot := gen.RMAT(scale, 16, o.Seed)
	res, err := dne.PartitionCtx(o.ctx(), snapshot, 16, dneCfg(o.Seed))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "extdyn-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lv, err := live.Create(dir, live.Config{Seed: o.Seed}, snapshot, res.Partitioning)
	if err != nil {
		return err
	}
	defer lv.Close()
	fmt.Fprintf(o.out(), "ExtDynamic — incremental maintenance vs full re-partition (|P|=16)\n")
	fmt.Fprintf(o.out(), "seed snapshot: %v, DNE live-vertex RF %.3f\n\n", snapshot, lv.Stats().ReplicationFactor)

	future := gen.RMAT(scale, 16, o.Seed+1)
	events := 8 * int(snapshot.NumEdges()) / 10
	if o.Quick {
		events /= 4
	}
	stream := dynpart.Churn(future, events, 0.2, o.Seed)
	t := &bench.Table{Header: []string{"events", "|E|", "incr RF", "incr EB", "re-part RF", "moved"}}
	steps := 4
	per := (len(stream) + steps - 1) / steps
	for lo := 0; lo < len(stream); lo += per {
		hi := min(lo+per, len(stream))
		if _, err := lv.Apply(stream[lo:hi]); err != nil {
			return err
		}
		moved, err := lv.Rebalance(2000)
		if err != nil {
			return err
		}
		// Full re-partition of the current edge set for comparison.
		ep := lv.Epoch()
		var keys []uint64
		for q := 0; q < ep.NumShards(); q++ {
			keys = append(keys, ep.ShardEdgesPacked(q)...)
		}
		cur := graph.FromPacked(0, keys)
		fres, err := dne.PartitionCtx(o.ctx(), cur, 16, dneCfg(o.Seed))
		if err != nil {
			return err
		}
		fq := fres.Partitioning.Measure(cur)
		fullRF := float64(fq.Replicas) / float64(coveredOf(cur))
		st := lv.Stats()
		t.Add(hi, st.NumEdges, st.ReplicationFactor, st.EdgeBalance, fullRF, moved)
	}
	t.Print(o.out())
	if err := lv.State().CheckInvariants(); err != nil {
		return err
	}
	fmt.Fprintln(o.out(), "\nshape: incremental RF tracks within a small factor of full re-partitioning")
	return nil
}

func coveredOf(g *graph.Graph) int64 {
	var covered int64
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > 0 {
			covered++
		}
	}
	return covered
}

// ExtPowerLaw validates the §6 premise on the synthetic stand-ins: fits the
// degree tails of the skewed datasets and contrasts them with a road
// lattice, reporting the fitted α that parameterises the Table-1 bounds.
func ExtPowerLaw(o Options) error {
	fmt.Fprintf(o.out(), "ExtPowerLaw — degree-tail fits of the synthetic stand-ins (Clauset MLE)\n\n")
	t := &bench.Table{Header: []string{"graph", "|V|", "|E|", "alpha", "xmin", "KS", "gini"}}
	row := func(name string, g interface {
		NumVertices() uint32
		NumEdges() int64
		Degree(uint32) int64
	}) error {
		degs := make([]int64, 0, g.NumVertices())
		for v := uint32(0); v < g.NumVertices(); v++ {
			if d := g.Degree(v); d > 0 {
				degs = append(degs, d)
			}
		}
		gini := powerlaw.NewHistogram(degs).Gini()
		fit, err := powerlaw.FitTail(degs)
		if err != nil {
			t.Add(name, g.NumVertices(), g.NumEdges(), "n/a", "-", "-", gini)
			return nil
		}
		t.Add(name, g.NumVertices(), g.NumEdges(), fit.Alpha, fit.XMin, fit.KS, gini)
		return nil
	}
	scale := 12 + o.Shift
	if scale < 8 {
		scale = 8
	}
	if err := row("rmat-ef16", gen.RMAT(scale, 16, o.Seed)); err != nil {
		return err
	}
	if err := row("rmat-ef64", gen.RMAT(scale, 64, o.Seed)); err != nil {
		return err
	}
	if err := row("barabasi-albert", gen.BarabasiAlbert(uint32(1)<<scale, 8, o.Seed)); err != nil {
		return err
	}
	if err := row("chung-lu-2.4", gen.PowerLaw(uint32(1)<<scale, 2.4, o.Seed)); err != nil {
		return err
	}
	if err := row("road-lattice", gen.Road(1<<(scale/2), 1<<(scale/2), o.Seed)); err != nil {
		return err
	}
	t.Print(o.out())
	fmt.Fprintln(o.out(), "\nshape: skewed families fit heavy tails (high gini); road does not")
	return nil
}

func dneCfg(seed int64) dne.Config {
	cfg := dne.DefaultConfig()
	cfg.Seed = seed
	return cfg
}
