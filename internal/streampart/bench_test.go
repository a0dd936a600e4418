package streampart

import (
	"context"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	"github.com/distributedne/dne/internal/partition"
)

// BenchmarkHDRFStream is the stream-hdrf path without the e2e harness: the
// registry's HDRF at P=16 over an RMAT scale-16 graph read from 16 ESZ1
// files, written once. It reports edges/s of the whole call (degree pass,
// shuffle, assignment, measurement) next to ns/op.
func BenchmarkHDRFStream(b *testing.B) {
	const p, shards, seed = 16, 16, 11
	dir := b.TempDir()
	g := gen.RMAT(16, 16, seed)
	if err := graph.WriteCanonicalShardsCompressed(dir, g, shards); err != nil {
		b.Fatal(err)
	}
	edges := g.NumEdges()
	b.Run("scale=16/P=16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src, err := graph.DirSource(dir)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := methods.PartitionSource(context.Background(), "hdrf", src, partition.NewSpec(p, seed)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
	})
}
