package dne

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

func TestChaosTransportGivesIdenticalPartitioning(t *testing.T) {
	// Cross-sender message arrival order is scrambled by the Chaos wrapper,
	// for the AllToAllU64 shuffle and for every superstep; the algorithm
	// re-sorts by (From, Seq), so the result must be bit-identical to the
	// plain in-process run. This is the executable form of the §4 claim that
	// the protocol's semantics do not depend on delivery timing.
	g := gen.RMAT(9, 8, 11)
	const parts = 5
	cfg := DefaultConfig()
	cfg.Seed = 3

	plain, err := runDNE(g, parts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	shards := graph.ShardsOf(g, parts)
	var chaotic *ShardResult // written by rank 0's goroutine only
	err = cluster.New(parts).Run(func(comm cluster.Comm) error {
		w := cluster.NewChaos(comm, int64(comm.Rank())*131+7, 150*time.Microsecond)
		defer w.Close()
		res, _, err := PartitionShards(context.Background(), w, shards[comm.Rank()], cfg)
		if comm.Rank() == 0 {
			chaotic = res
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if chaotic == nil {
		t.Fatal("rank 0 returned no result")
	}
	if !slices.Equal(chaotic.Owner, plain.Partitioning.Owner) {
		t.Fatal("owners under scrambled delivery differ from the plain run's")
	}
}
