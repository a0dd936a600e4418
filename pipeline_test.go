package dnebench

import (
	"context"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/partition"
)

func writeCompressedShards(t *testing.T, g *graph.Graph, count int) string {
	t.Helper()
	dir := t.TempDir()
	if err := graph.WriteCanonicalShardsCompressed(dir, g, count); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestPipelineMatchesSequential is TestSourcePathMatchesInMemory over
// compressed stripes: for every Streams-capable method, the stream pipeline
// (ESZ1 decode-ahead, spill-backed shuffle, assignment) must equal the
// in-memory run over the same graph bit for bit — same owner checksum, same
// quality numbers — without materializing the source. Compression and
// decode-ahead are pure transport: they may only change when bytes move,
// never which partition an edge lands in.
func TestPipelineMatchesSequential(t *testing.T) {
	g := gen.RMAT(12, 8, 7)
	dir := writeCompressedShards(t, g, 4)
	src, err := graph.DirSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.Info().NumEdges != g.NumEdges() {
		t.Fatalf("compressed shard dir declares %d edges, graph has %d", src.Info().NumEdges, g.NumEdges())
	}
	for _, name := range streamNames() {
		t.Run(name, func(t *testing.T) {
			spec := partition.NewSpec(8, 7)
			pr, resolved, err := methods.New(name, spec)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := pr.Partition(context.Background(), g, resolved)
			if err != nil {
				t.Fatal(err)
			}
			srcRes, err := methods.PartitionSource(context.Background(), name, src, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ownersChecksum(srcRes.Partitioning.Owner), ownersChecksum(mem.Partitioning.Owner); got != want {
				t.Fatalf("compressed-stripe checksum %#x != in-memory %#x", got, want)
			}
			if srcRes.Quality != mem.Quality {
				t.Fatalf("compressed-stripe quality %+v != in-memory %+v", srcRes.Quality, mem.Quality)
			}
			if err := srcRes.Partitioning.Validate(g); err != nil {
				t.Fatal(err)
			}
			if _, warned := srcRes.Stats.Extra["materialized_graph_bytes"]; warned {
				t.Fatalf("stream-capable %s was materialized: %+v", name, srcRes.Stats)
			}
		})
	}
}

// TestCompressedShardsHalveScale16 pins the compression acceptance bar on
// the real workload: ESZ1 stripes of the scale-16 RMAT must occupy at most
// half the bytes of the raw EShard encoding, per aggregate and per file.
func TestCompressedShardsHalveScale16(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-16 generation in -short mode")
	}
	g := gen.RMAT(16, 16, 42)
	dir := writeCompressedShards(t, g, 8)
	stats, err := graph.ShardDirStats(dir)
	if err != nil {
		t.Fatal(err)
	}
	var disk, raw int64
	for _, st := range stats {
		if !st.Compressed {
			t.Fatalf("%s: expected a compressed shard", st.Path)
		}
		if st.Ratio < 2 {
			t.Errorf("%s: compression ratio %.2f < 2x (edges=%d disk=%d)",
				st.Path, st.Ratio, st.Edges, st.DiskBytes)
		}
		disk += st.DiskBytes
		raw += int64(st.Ratio * float64(st.DiskBytes))
	}
	if disk == 0 || float64(raw)/float64(disk) < 2 {
		t.Fatalf("aggregate compression ratio %.2f < 2x (raw=%d disk=%d)",
			float64(raw)/float64(disk), raw, disk)
	}
	t.Logf("scale-16 RMAT: %d edges, raw %d B -> esz1 %d B (%.2fx)",
		g.NumEdges(), raw, disk, float64(raw)/float64(disk))
}
