package dne

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// oracleRF is the replication factor per vertex that has an edge, the
// denominator benchmarks/e2e's oracle uses (Measure divides by |V|, which on
// RMAT counts the isolated vertices too).
func oracleRF(g *graph.Graph, pt *partition.Partitioning) float64 {
	q := pt.Measure(g)
	return float64(q.Replicas) / float64(q.Replicas-q.VertexCuts)
}

// TestCapAndCoverageEveryFamily is Eq. (2) as a test, on every graph family
// the repository generates and three machine counts: every edge is owned
// exactly once and no partition exceeds ⌊α|E|/P⌋ + P, whatever the degree
// distribution — a hub's expansion is cut per edge, not per vertex — which
// bounds edge_balance by α + P²/|E|. The star is the worst case for both
// properties: one vertex carries every edge, so a cap that is checked per
// expansion gives one partition everything, and a truncated hub that is not
// offered again takes tens of thousands of supersteps to drain.
func TestCapAndCoverageEveryFamily(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat12", gen.RMAT(12, 16, 1)},
		{"rmat13", gen.RMAT(13, 16, 2)},
		{"rmat14", gen.RMAT(14, 16, 3)},
		{"powerlaw2.2", gen.PowerLaw(1<<13, 2.2, 4)},
		{"ba", gen.BarabasiAlbert(1<<12, 8, 5)},
		{"er", gen.ER(1<<12, 1<<15, 6)},
		{"road", gen.Road(64, 64, 7)},
		{"ws", gen.WattsStrogatz(1<<12, 8, 0.1, 8)},
		{"star", gen.Star(1 << 14)},
	}
	for _, f := range families {
		for _, p := range []int{4, 16, 64} {
			t.Run(fmt.Sprintf("%s/P=%d", f.name, p), func(t *testing.T) {
				if testing.Short() && (p == 64 || f.name == "rmat14") {
					t.Skip("short: the smaller cases cover the same code")
				}
				cfg := DefaultConfig()
				cfg.Seed = int64(p)
				res, err := runDNE(f.g, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Partitioning.Validate(f.g); err != nil {
					t.Fatal(err)
				}
				edges := f.g.NumEdges()
				limit := int64(cfg.Alpha*float64(edges)/float64(p)) + int64(p)
				largest := slices.Max(res.Partitioning.EdgeCounts())
				if largest > limit {
					t.Errorf("largest partition has %d edges, ⌊α|E|/P⌋ + P = %d", largest, limit)
				}
				balance := res.Partitioning.Measure(f.g).EdgeBalance
				if bound := cfg.Alpha + float64(p*p)/float64(edges); balance > bound {
					t.Errorf("edge_balance %.4f above α + P²/|E| = %.4f", balance, bound)
				}
				if f.name == "star" && res.Iterations > 32 {
					t.Errorf("star took %d supersteps, want ≤ 32", res.Iterations)
				}
				t.Logf("|E|=%d supersteps=%d swept=%d balance=%.4f rf=%.3f",
					edges, res.Iterations, res.SweptEdges, balance, oracleRF(f.g, res.Partitioning))
			})
		}
	}
}

// stepRun drives the machines of an in-process run superstep by superstep
// under a loop condition of the caller's: stop is called on every machine
// after each superstep (with the allocated-edge count the superstep started
// from) and ends the loop when it returns true; closing decides how the next
// superstep selects. It returns the owners in canonical edge order and rank
// 0's allocated-edge count after every superstep. With machine.finished and
// machine.closing for the two it is runMachine without checkpoints.
func stepRun(t *testing.T, g *graph.Graph, p int, cfg Config,
	stop func(m *machine, before int64) bool, closing func(m *machine) bool) ([]int32, []int64) {
	t.Helper()
	shards := graph.ShardsOf(g, p)
	var owners []int32 // written by rank 0's goroutine only, like trace
	var trace []int64
	err := cluster.New(p).Run(func(comm cluster.Comm) error {
		in, _, err := shuffleInput(comm, shards[comm.Rank()])
		if err != nil {
			return err
		}
		var res MachineStats
		m, err := newMachine(comm, cfg, in, &res)
		if err != nil {
			return err
		}
		for iter := 1; ; iter++ {
			before := sum(m.partSizes)
			if _, err := m.superstep(context.Background(), closing(m)); err != nil {
				return err
			}
			if comm.Rank() == 0 {
				trace = append(trace, sum(m.partSizes))
			}
			if stop(m, before) {
				m.finish(iter, in)
				break
			}
		}
		_, o, err := collectOwnersByKey(comm, in.sg)
		if comm.Rank() == 0 {
			owners = o
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return owners, trace
}

func isClosing(m *machine) bool {
	_, closing := m.closing()
	return closing
}

// TestRMAT16SuperstepTable pins the paper's "tens of iterations" (§5) on the
// graph family the paper scales with, at both machine counts the benchmark
// runs, and logs the head/tail table the README quotes: per seed, the
// supersteps until 97 % of the edges are allocated, the total, RF per covered
// vertex and edge balance.
func TestRMAT16SuperstepTable(t *testing.T) {
	if testing.Short() {
		t.Skip("short: twenty 1M-edge runs")
	}
	for _, p := range []int{4, 16} {
		var steps, head int
		var rf, balance float64
		const seeds = 10
		for seed := int64(1); seed <= seeds; seed++ {
			g := gen.RMAT(16, 16, seed)
			cfg := DefaultConfig()
			cfg.Seed = seed
			owners, trace := stepRun(t, g, p, cfg, (*machine).finished, isClosing)
			if len(trace) > 80 {
				t.Errorf("P=%d seed %d: %d supersteps, want ≤ 80", p, seed, len(trace))
			}
			if seed == 1 { // the stepped run is the run Partition makes
				res, err := runDNE(g, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(owners, res.Partitioning.Owner) || len(trace) != res.Iterations {
					t.Fatalf("P=%d: the stepped run (%d supersteps) is not the run Partition made (%d)", p, len(trace), res.Iterations)
				}
			}
			// Supersteps until 97 % is allocated; the hand-off counts as one
			// more when the loop ends before that.
			h := len(trace) + 1
			for i, allocated := range trace {
				if float64(allocated) >= 0.97*float64(g.NumEdges()) {
					h = i + 1
					break
				}
			}
			pt := &partition.Partitioning{NumParts: p, Owner: owners}
			r, b := oracleRF(g, pt), pt.Measure(g).EdgeBalance
			t.Logf("P=%-2d seed=%-2d head97=%-3d supersteps=%-3d swept=%-6d rf=%.4f balance=%.4f",
				p, seed, h, len(trace), g.NumEdges()-trace[len(trace)-1], r, b)
			steps, head = steps+len(trace), head+h
			rf, balance = rf+r, balance+b
		}
		t.Logf("P=%-2d mean    head97=%.1f supersteps=%.1f rf=%.4f balance=%.4f",
			p, float64(head)/seeds, float64(steps)/seeds, rf/seeds, balance/seeds)
	}
}

// TestSingleSurvivorHandOffIsTheOldTail checks the one hand-off that is made
// while the boundaries are still full: when a single partition is under its
// cap, the loop stops at once and the sweep gives it every free edge. Run to
// the end without that rule — the lone partition keeps expanding and
// re-seeding at λ until no edge is free, which is what the tail of the run
// used to be — the owners are the same, only hundreds of supersteps later.
func TestSingleSurvivorHandOffIsTheOldTail(t *testing.T) {
	g := gen.RMAT(13, 16, 5)
	const p = 4
	cfg := DefaultConfig()
	cfg.Seed = 5

	res, err := runDNE(g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	alone := false // written by rank 0's goroutine only
	// The loop condition of runMachine, minus the closing rule once a single
	// partition is under its cap.
	noHandOff := func(m *machine, before int64) bool {
		if under, _ := m.closing(); under == 1 {
			if m.rank == 0 {
				alone = true
			}
			return sum(m.partSizes) == m.totalE
		}
		return m.finished(before)
	}
	drainUnlessAlone := func(m *machine) bool {
		under, closing := m.closing()
		return closing && under > 1
	}
	owners, trace := stepRun(t, g, p, cfg, noHandOff, drainUnlessAlone)
	if !alone {
		t.Fatal("no superstep of this run ended with a single partition under its cap; pick another seed")
	}
	if res.SweptEdges == 0 || len(trace) <= res.Iterations {
		t.Fatalf("the run handed off %d edges after %d supersteps and the rule-free run took %d: nothing was compared",
			res.SweptEdges, res.Iterations, len(trace))
	}
	if !slices.Equal(owners, res.Partitioning.Owner) {
		t.Fatal("owners differ between the single-survivor hand-off and running the loop to the end")
	}
	t.Logf("hand-off after %d supersteps (%d edges swept); without the rule %d supersteps, same owners",
		res.Iterations, res.SweptEdges, len(trace))
}
