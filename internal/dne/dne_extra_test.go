package dne

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/distributedne/dne/internal/bound"
	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

func TestTheorem2Tightness(t *testing.T) {
	// The Theorem-2 construction: complete graph on n vertices plus a
	// disjoint ring, partitioned |P| = n(n−1)/2 ways. The adversarial
	// schedule of the proof drives RF toward the upper bound; any valid run
	// must stay under it, and on this graph the bound is within a small
	// factor of the worst achievable RF.
	n := 6
	g := gen.RingPlusComplete(n)
	parts := n * (n - 1) / 2
	cfg := DefaultConfig()
	cfg.SingleExpansion = true
	res, err := runDNE(g, parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partitioning.Validate(g); err != nil {
		t.Fatal(err)
	}
	q := res.Partitioning.Measure(g)
	ub := bound.Theorem1(g.NumEdges(), int64(g.NumVertices()), parts)
	if q.ReplicationFactor > ub {
		t.Errorf("RF %.3f exceeds bound %.3f", q.ReplicationFactor, ub)
	}
	// The bound must be meaningful here: for this family
	// UB = (2n(n−1)+n)/(n(n−1)/2+n) → 4 from below as n grows.
	if ub >= 4 {
		t.Errorf("unexpected bound %.3f for ring+complete (asymptote is 4)", ub)
	}
}

func TestGridEdgeOwnerConsistentWithVertexProcs(t *testing.T) {
	// Property: the owner of any edge (u,v) must be in vertexProcs(u) and
	// vertexProcs(v) — otherwise multicasts would miss allocations.
	f := func(u, v uint32, pRaw uint8) bool {
		p := int(pRaw%63) + 2
		gd := newGrid(p)
		owner := gd.edgeOwner(u, v)
		inU, inV := false, false
		for _, pr := range gd.vertexProcs(u) {
			if pr == owner {
				inU = true
			}
		}
		for _, pr := range gd.vertexProcs(v) {
			if pr == owner {
				inV = true
			}
		}
		return inU && inV && owner >= 0 && owner < p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGridFanoutIsSqrtP(t *testing.T) {
	for _, p := range []int{4, 16, 64, 256} {
		gd := newGrid(p)
		procs := gd.vertexProcs(12345)
		// Row ∪ column ≤ R + C − overlap; must be well below p.
		if len(procs) > gd.r+gd.c {
			t.Errorf("P=%d: fanout %d exceeds R+C=%d", p, len(procs), gd.r+gd.c)
		}
		if p >= 16 && len(procs) >= p {
			t.Errorf("P=%d: fanout %d not sub-linear", p, len(procs))
		}
	}
}

func TestSubgraphPartitionIsCompleteAndDisjoint(t *testing.T) {
	// The shuffle's 2D-hash distribution must place every edge on exactly
	// one machine.
	g := gen.RMAT(9, 8, 3)
	const p = 7
	shards := graph.ShardsOf(g, p)
	locals := make([][]uint64, p)
	err := cluster.New(p).Run(func(comm cluster.Comm) error {
		var err error
		locals[comm.Rank()], _, err = shuffleShard(comm, shards[comm.Rank()].Packed)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]int, g.NumEdges())
	for _, local := range locals {
		for _, k := range local {
			seen[k]++
		}
	}
	if int64(len(seen)) != g.NumEdges() {
		t.Fatalf("machines hold %d distinct edges, graph has %d", len(seen), g.NumEdges())
	}
	for _, e := range g.Edges() {
		if c := seen[graph.PackEdge(e.U, e.V)]; c != 1 {
			t.Fatalf("edge %v held by %d machines", e, c)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := gen.RMAT(6, 4, 1)
	if _, err := runDNE(g, 0, DefaultConfig()); err == nil {
		t.Error("numParts=0 must fail")
	}
	bad := DefaultConfig()
	bad.Alpha = 0.9
	if _, err := runDNE(g, 2, bad); err == nil {
		t.Error("alpha<1 must fail")
	}
	bad = DefaultConfig()
	bad.Lambda = 2
	if _, err := runDNE(g, 2, bad); err == nil {
		t.Error("lambda>1 must fail")
	}
	empty := graph.FromEdges(4, nil)
	if _, err := runDNE(empty, 2, DefaultConfig()); err == nil {
		t.Error("empty graph must fail")
	}
}

func TestMoreMachinesThanUsefulStillCompletes(t *testing.T) {
	// More partitions than a tiny graph can fill: expansion processes idle
	// out and the sweep (if any) finishes the job.
	g := graph.FromEdges(0, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	res, err := runDNE(g, 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partitioning.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestStarGraphSingleHub(t *testing.T) {
	// Every edge shares the hub: RF of the hub is |P| but leaves stay at 1;
	// the algorithm must terminate and respect the cap.
	g := gen.Star(1 << 10)
	res, err := runDNE(g, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partitioning.Validate(g); err != nil {
		t.Fatal(err)
	}
	q := res.Partitioning.Measure(g)
	// hub replicated ≤ 4 times: RF ≤ (|V| - 1 + 4)/|V| ≈ 1.003
	if q.ReplicationFactor > 1.01 {
		t.Errorf("star RF %.4f too high", q.ReplicationFactor)
	}
}

func TestTCPTransportMatchesInProcess(t *testing.T) {
	// The same graph, seed and machine count must give the identical
	// partitioning over the TCP transport — the algorithm cannot tell
	// transports apart.
	g := gen.RMAT(8, 8, 5)
	const parts = 3
	cfg := DefaultConfig()
	cfg.Seed = 17

	inproc, err := runDNE(g, parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := runShardTCP(t, graph.ShardsOf(g, parts), cfg)
	pt := &partition.Partitioning{NumParts: parts, Owner: root.Owner}
	if err := pt.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(root.Owner, inproc.Partitioning.Owner) {
		t.Fatal("TCP owners differ from in-process owners")
	}
}

func TestIterationCountsDropWithLambda(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	iters := func(lambda float64) int {
		cfg := DefaultConfig()
		cfg.Lambda = lambda
		res, err := runDNE(g, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Iterations
	}
	low, high := iters(0.01), iters(1.0)
	if high >= low {
		t.Errorf("iterations at λ=1 (%d) should be far below λ=0.01 (%d)", high, low)
	}
}

func TestMemAndCommReported(t *testing.T) {
	g := gen.RMAT(9, 8, 3)
	res, err := runDNE(g, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.MemBytes <= 0 || res.CommBytes <= 0 || res.CommMessages <= 0 {
		t.Errorf("metrics missing: mem=%d comm=%d msgs=%d",
			res.MemBytes, res.CommBytes, res.CommMessages)
	}
	if res.MemScore(g.NumEdges()) <= 0 {
		t.Error("mem score missing")
	}
}
