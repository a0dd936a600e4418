package main

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/store"
)

func TestCheckPartitionQuality(t *testing.T) {
	// The path 0-1-2 cut at vertex 1: vertex 1 is in both parts.
	want := []uint64{0<<32 | 1, 1<<32 | 2}
	q, err := checkPartition(3, want, want, []int32{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.rf-4.0/3) > 1e-12 || q.edgeBalance != 1 {
		t.Errorf("rf %v, edge balance %v; want 4/3 and 1", q.rf, q.edgeBalance)
	}
}

func TestOracleCatchesCorruption(t *testing.T) {
	g := rmat(10, 3)
	res, err := dne.PartitionCtx(context.Background(), g, 4, dneConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	want := packedEdges(g)
	owner := res.Partitioning.Owner
	if _, err := checkPartition(g.NumVertices(), want, want, owner, 4); err != nil {
		t.Fatalf("clean partitioning rejected: %v", err)
	}
	sum := ownerChecksum(owner)

	bad := slices.Clone(owner)
	bad[len(bad)/2] = 4
	if _, err := checkPartition(g.NumVertices(), want, want, bad, 4); err == nil {
		t.Error("owner outside [0,4) accepted")
	}
	bad[len(bad)/2] = (owner[len(bad)/2] + 1) % 4
	if ownerChecksum(bad) == sum {
		t.Error("checksum blind to a changed owner")
	}

	twice := slices.Clone(want)
	twice[5] = twice[4]
	if _, err := checkPartition(g.NumVertices(), want, twice, owner, 4); err == nil {
		t.Error("an edge owned twice and another never accepted")
	}
	if _, err := checkPartition(g.NumVertices(), want, want[1:], owner[1:], 4); err == nil {
		t.Error("missing edge accepted")
	}
}

func TestOracleCatchesWrongAnswers(t *testing.T) {
	g := rmat(8, 3)
	var hub graph.Vertex
	for v := graph.Vertex(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	nbrs := slices.Clone(g.Neighbors(hub))
	slices.Sort(nbrs)
	if err := checkNeighbors(g, hub, nbrs); err != nil {
		t.Fatal(err)
	}
	if err := checkNeighbors(g, hub, nbrs[1:]); err == nil {
		t.Error("missing neighbour accepted")
	}

	res, err := dne.PartitionCtx(context.Background(), g, 4, dneConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.BuildPartitioning(g, res.Partitioning)
	if err != nil {
		t.Fatal(err)
	}
	kh, err := st.KHop(context.Background(), hub, khopDepth)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkKHop(g, hub, khopDepth, kh); err != nil {
		t.Fatal(err)
	}
	kh.Depths[len(kh.Depths)-1]--
	if err := checkKHop(g, hub, khopDepth, kh); err == nil {
		t.Error("wrong depth accepted")
	}
}

func TestReferenceAnalytics(t *testing.T) {
	// Two components: a triangle 0-1-2 and an edge 4-5; vertex 3 is alone.
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 5, V: 4}})
	if got, want := refWCC(g), []graph.Vertex{0, 0, 0, 3, 4, 4}; !slices.Equal(got, want) {
		t.Errorf("refWCC = %v, want %v", got, want)
	}
	pr := refPageRank(g, 20, 0.85)
	if pr[3] != 0 || math.Abs(pr[0]-pr[1]) > 1e-15 || math.Abs(pr[4]-pr[5]) > 1e-15 {
		t.Errorf("refPageRank = %v", pr)
	}
	if err := checkPageRank(pr, pr); err != nil {
		t.Error(err)
	}
	off := slices.Clone(pr)
	off[0] *= 1.001
	if err := checkPageRank(off, pr); err == nil {
		t.Error("a rank off by a thousandth accepted")
	}
}
