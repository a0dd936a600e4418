// Serving: the offline-build / online-serve split. Partition a graph with
// two methods of very different replication factor, seed a served graph
// from each result (live.Create: per-partition base files, whose CSR
// shards and replica index answer queries), serve the same traversal
// workload from both, and watch the better partitioning pay fewer
// cross-shard hops. Finally, close a graph and reopen its directory — the
// restart path a server uses to come back without re-partitioning.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/obs"
	"github.com/distributedne/dne/internal/partition"
)

func main() {
	ctx := context.Background()

	// 1. One graph, two partitionings: random hashing (high RF) vs NE
	//    (low RF). The spec is identical; only the method differs.
	g := gen.RMAT(12, 8, 42)
	fmt.Printf("input: %v\n\n", g)
	spec := partition.NewSpec(8, 42)
	root, err := os.MkdirTemp("", "serving-graphs-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	graphs := map[string]*live.Live{}
	for _, name := range []string{"random", "ne"} {
		pr, resolved, err := methods.New(name, spec)
		if err != nil {
			log.Fatal(err)
		}
		res, err := pr.Partition(ctx, g, resolved)
		if err != nil {
			log.Fatal(err)
		}
		// 2. Build: each partition's edges become a base file and a CSR
		//    shard, with a replica index over all of them, straight from
		//    the partitioner result.
		lv, err := live.Create(filepath.Join(root, name), live.Config{}, g, res.Partitioning)
		if err != nil {
			log.Fatal(err)
		}
		st := lv.Stats()
		fmt.Printf("%-7s RF %.3f → %d shards, %.0f vertex replicas\n",
			pr.Name(), res.Quality.ReplicationFactor, st.NumParts, st.ReplicationFactor*float64(st.NumVertices))
		graphs[name] = lv
	}

	// 3. Point queries run on the graph's current epoch and route by the
	//    replica index: neighbors concatenate the disjoint lists of every
	//    shard holding a copy of the vertex.
	ep := graphs["ne"].Epoch()
	v := uint32(7)
	ns, err := ep.Neighbors(v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvertex %d: replicas %v, degree %d, first neighbors %v\n",
		v, ep.Replicas(v), len(ns), ns[:min(5, len(ns))])

	// 4. Traversals scan, level by level, every shard holding a copy of a
	//    frontier vertex; each copy beyond the first is a cross-shard hop.
	hop, err := ep.KHop(ctx, v, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2-hop from %d: %d vertices, levels %v, %d cross-shard hops, %d shard tasks\n",
		v, len(hop.Vertices), hop.LevelSizes, hop.CrossShardHops, hop.ShardTasks)

	// 5. Same 2000 seeded queries (30% 2-hop) against both graphs:
	//    replication factor becomes a measured serving cost.
	fmt.Println()
	for _, name := range []string{"random", "ne"} {
		s := graphs[name].Epoch()
		before := s.Metrics() // step 3 and 4 queried the NE graph
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
		hops := float64(s.Metrics().CrossShardHops-before.CrossShardHops) / 2000
		fmt.Printf("%-7s %6.0f qps   p95 %v   %.2f hops/query\n",
			name, qps, time.Duration(lat.Snapshot().Quantile(0.95)), hops)
	}

	// 6. Restart: the graph's directory holds its bases, so a closed graph
	//    reopens and serves identical answers without re-partitioning.
	dir := filepath.Join(root, "ne")
	if err := graphs["ne"].Close(); err != nil {
		log.Fatal(err)
	}
	restored, err := live.Open(dir, live.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer restored.Close()
	ns2, err := restored.Epoch().Neighbors(v)
	if err != nil {
		log.Fatal(err)
	}
	if !slices.Equal(ns, ns2) {
		log.Fatalf("reopened graph answers neighbors(%d) differently", v)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreopened: %d base files; vertex %d has the same %d neighbors, no re-partitioning\n",
		len(files), v, len(ns2))
}
