// Live graphs: the §8 dynamic-graph extension as a serving subsystem. A
// snapshot partitioned offline with Distributed NE seeds the live graph;
// then edges arrive and depart while it answers queries — arrivals are
// placed incrementally by the replica-aware greedy partitioner, land in
// append-only EShard tails, accumulate in a mutable overlay over the
// immutable CSR base, and a compactor folds them into fresh epochs that
// readers pin and never block on, and into fresh sorted ESZ1 bases on disk.
// The same directory reopens to the bit-identical graph after a graceful
// Close.
//
//	go run ./examples/live
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
)

func main() {
	dir, err := os.MkdirTemp("", "example-live-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Yesterday's snapshot of a skewed social graph, partitioned offline
	//    with Distributed NE into 8 parts, seeds the live graph. Create
	//    writes each partition's edges as its sorted ESZ1 base
	//    (shard-QQQQ-of-0008.esz, a shard file any shard reader opens).
	//    Insertions and tombstones since the base go to two raw tails
	//    beside it (.add and .dead), which the first ingest opens along
	//    with the placement state; bases and tails are all the directory
	//    holds.
	const parts, seed = 8, 42
	snapshot := gen.RMAT(12, 16, seed)
	res, err := dne.PartitionCtx(context.Background(), snapshot, parts, dne.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	lv, err := live.Create(dir, live.Config{Seed: seed}, snapshot, res.Partitioning)
	if err != nil {
		log.Fatal(err)
	}
	st := lv.Stats()
	fmt.Printf("seeded from DNE (%d supersteps): |E|=%d RF=%.3f balance=%.3f\n",
		res.Iterations, st.NumEdges, st.ReplicationFactor, st.EdgeBalance)

	// 2. Today's traffic: a seeded churn stream (10% deletions) of edges
	//    from a future region of the graph. Apply ingests a batch — greedy
	//    placement, tail append, overlay update — and publishes ONE new
	//    epoch per batch: the batch is the visibility granularity.
	future := gen.RMAT(13, 16, seed+1)
	stream := dynpart.Churn(future, 300_000, 0.1, seed)
	const batch = 4096
	for lo := 0; lo < len(stream); lo += batch {
		hi := min(lo+batch, len(stream))
		if _, err := lv.Apply(stream[lo:hi]); err != nil {
			log.Fatal(err)
		}
	}
	st = lv.Stats()
	fmt.Printf("ingested %d events: |E|=%d RF=%.3f balance=%.3f epoch=%d (%d auto-compactions)\n",
		len(stream), st.NumEdges, st.ReplicationFactor, st.EdgeBalance, st.Epoch, st.Compactions)

	// 3. Readers pin an epoch once and query a frozen view. Compaction
	//    publishes a NEW epoch; the pinned one stays valid and immutable,
	//    so the answers below are batch-consistent even though the base
	//    CSR is rebuilt underneath and each partition rebased on disk.
	ep := lv.Epoch()
	before, err := ep.Neighbors(0)
	if err != nil {
		log.Fatal(err)
	}
	if err := lv.Compact(); err != nil {
		log.Fatal(err)
	}
	after, err := ep.Neighbors(0) // same pinned epoch: identical answer
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pinned epoch %d: deg(0)=%d before compaction, %d after (frozen view)\n",
		ep.Seq(), len(before), len(after))
	hop, err := lv.Epoch().KHop(context.Background(), 0, 2) // fresh epoch sees the compacted base
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fresh epoch %d: 2-hop from 0 visits %d vertices (%d cross-shard hops)\n",
		lv.Epoch().Seq(), len(hop.Vertices), hop.CrossShardHops)

	// 4. Greedy placement keeps insert streams balanced on its own, so give
	//    the rebalancer real work: a correlated departure wave empties half
	//    of each low partition, pushing the others over the α cap. The
	//    bounded rebalance then migrates at most `budget` edges, each as a
	//    delete+re-add pair through the same tails, so durability and
	//    epochs see it as ordinary traffic.
	ep = lv.Epoch()
	var wave []dynpart.Event
	for s := 0; s < ep.NumShards()/2; s++ {
		packed := ep.ShardEdgesPacked(s)
		for _, k := range packed[:len(packed)/2] {
			wave = append(wave, dynpart.Event{Op: dynpart.Remove, Edge: graph.UnpackEdge(k)})
		}
	}
	if _, err := lv.Apply(wave); err != nil {
		log.Fatal(err)
	}
	moved, err := lv.Rebalance(5000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("departure wave of %d edges, then rebalance moved %d (%d bytes migrated)\n",
		len(wave), moved, lv.Stats().MigratedBytes)

	// 5. Close seals the tails (terminator + footer); reopening the
	//    directory merges them into the bases to the bit-identical graph —
	//    same (edge, owner) checksum — and the first mutation rebuilds
	//    the placement state from it.
	sum := lv.Checksum()
	if err := lv.Close(); err != nil {
		log.Fatal(err)
	}
	lv2, err := live.Open(dir, live.Config{}) // parts adopted from the bases
	if err != nil {
		log.Fatal(err)
	}
	defer lv2.Close()
	if lv2.Checksum() != sum {
		log.Fatalf("restart drifted: %#x != %#x", lv2.Checksum(), sum)
	}
	fmt.Printf("reopened from disk: checksum %#x unchanged across restart\n", sum)
}
