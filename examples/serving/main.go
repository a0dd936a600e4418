// Serving: the offline-build / online-serve split. Partition a graph with
// two methods of very different replication factor, materialize each result
// into a sharded query store, serve the same traversal workload from both,
// and watch the better partitioning pay fewer cross-shard hops. Finally,
// persist a store as a shard directory and restore it — the restart path a
// server uses to come back without re-partitioning.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"slices"
	"time"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/obs"
	"github.com/distributedne/dne/internal/partition"
	"github.com/distributedne/dne/internal/store"
)

func main() {
	ctx := context.Background()

	// 1. One graph, two partitionings: random hashing (high RF) vs NE
	//    (low RF). The spec is identical; only the method differs.
	g := gen.RMAT(12, 8, 42)
	fmt.Printf("input: %v\n\n", g)
	spec := partition.NewSpec(8, 42)

	stores := map[string]*store.Store{}
	for _, name := range []string{"random", "ne"} {
		pr, resolved, err := methods.New(name, spec)
		if err != nil {
			log.Fatal(err)
		}
		res, err := pr.Partition(ctx, g, resolved)
		if err != nil {
			log.Fatal(err)
		}
		// 2. Build: per-shard CSR stores + replica index, straight from
		//    the partitioner result.
		st, err := store.BuildPartitioning(g, res.Partitioning)
		if err != nil {
			log.Fatal(err)
		}
		replicas := 0
		for s := range st.NumShards() {
			replicas += st.ShardVertices(s)
		}
		fmt.Printf("%-7s RF %.3f → %d shards, %d vertex replicas\n",
			pr.Name(), res.Quality.ReplicationFactor, st.NumShards(), replicas)
		stores[name] = st
	}

	// 3. Point queries route by the replica index: neighbors concatenate
	//    the disjoint lists of every shard holding a copy of the vertex.
	st := stores["ne"]
	v := uint32(7)
	ns, err := st.Neighbors(v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvertex %d: replicas %v, degree %d, first neighbors %v\n",
		v, st.Replicas(v), len(ns), ns[:min(5, len(ns))])

	// 4. Traversals scan, level by level, every shard holding a copy of a
	//    frontier vertex; each copy beyond the first is a cross-shard hop.
	hop, err := st.KHop(ctx, v, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2-hop from %d: %d vertices, levels %v, %d cross-shard hops, %d shard tasks\n",
		v, len(hop.Vertices), hop.LevelSizes, hop.CrossShardHops, hop.ShardTasks)

	// 5. Same 2000 seeded queries (30% 2-hop) against both stores:
	//    replication factor becomes a measured serving cost.
	fmt.Println()
	for _, name := range []string{"random", "ne"} {
		s := stores[name]
		s.ResetMetrics() // step 3 and 4 queried the NE store
		rng := rand.New(rand.NewSource(7))
		lat := obs.NewHistogram()
		start := time.Now()
		for i := 0; i < 2000; i++ {
			v := uint32(rng.Intn(int(s.NumVertices())))
			qStart := time.Now()
			if rng.Float64() < 0.3 {
				_, err = s.KHop(ctx, v, 2)
			} else {
				_, err = s.Neighbors(v)
			}
			if err != nil {
				log.Fatal(err)
			}
			lat.Observe(int64(time.Since(qStart)))
		}
		qps := 2000 / time.Since(start).Seconds()
		fmt.Printf("%-7s %6.0f qps   p95 %v   %.2f hops/query\n",
			name, qps, time.Duration(lat.Snapshot().Quantile(0.95)), s.Metrics().HopsPerQuery())
	}

	// 6. Persistence round trip: a restarted server reads the store's shard
	//    directory and serves identical answers without re-partitioning.
	dir, err := os.MkdirTemp("", "serving-store-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := store.WriteDir(dir, st); err != nil {
		log.Fatal(err)
	}
	restored, err := store.ReadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	ns2, err := restored.Neighbors(v)
	if err != nil {
		log.Fatal(err)
	}
	if !slices.Equal(ns, ns2) {
		log.Fatalf("restored store answers neighbors(%d) differently", v)
	}
	fmt.Printf("\npersisted: %d shard files; restored store gives vertex %d the same %d neighbors, no re-partitioning\n",
		restored.NumShards(), v, len(ns2))
}
