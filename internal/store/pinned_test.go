package store

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// pinnedStore is the fixed input of the pinned tests: RMAT scale 10, edge
// factor 8, seed 3, each edge on a seeded random one of 8 shards.
func pinnedStore(t testing.TB) *Store {
	t.Helper()
	g := gen.RMAT(10, 8, 3)
	st, err := BuildPartitioning(g, randomPartitioning(g, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPinnedQueryMetrics pins the serving counters of a seeded
// Neighbors/KHop mix exactly: they feed store.hops_per_query,
// shard_tasks_per_query and touch_imbalance of the benchmark, so any change
// to the query path must leave every one of them unchanged. The mix draws
// one of three kinds per query and the third issues nothing, which keeps
// the seeded draws, and so the queries, those the counters were pinned on.
func TestPinnedQueryMetrics(t *testing.T) {
	st := pinnedStore(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	for q := 0; q < 200; q++ {
		v := graph.Vertex(rng.Intn(int(st.NumVertices())))
		var err error
		switch rng.Intn(3) {
		case 1:
			_, err = st.Neighbors(v)
		case 2:
			_, err = st.KHop(ctx, v, 1+rng.Intn(3))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	m := st.Metrics()
	got := []int64{m.NeighborsQueries, m.KHopQueries, m.CrossShardHops, m.ShardTasks}
	want := []int64{66, 64, 26270, 606}
	if !slices.Equal(got, want) {
		t.Errorf("neighbors/khop queries, hops, tasks = %v, want %v", got, want)
	}
	wantTouches := []int64{97, 105, 95, 97, 108, 100, 96, 97}
	if !slices.Equal(m.PerShardTouches, wantTouches) {
		t.Errorf("per-shard touches = %v, want %v", m.PerShardTouches, wantTouches)
	}
}
