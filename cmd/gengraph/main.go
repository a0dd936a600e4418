// Command gengraph emits synthetic graphs as edge lists or as sharded
// binary edge files (the EShard format read by dneworker and dnepart).
//
// Usage:
//
//	gengraph -kind rmat -scale 16 -ef 16 > graph.txt
//	gengraph -kind powerlaw -n 100000 -alpha 2.4 > graph.txt
//	gengraph -kind road -rows 200 -cols 220 > road.txt
//	gengraph -kind ringcomplete -n 8 > thm2.txt
//	gengraph -kind rmat -scale 20 -ef 16 -shards 16 -shard-dir shards/
//
// Kinds: rmat (Graph500 parameters), powerlaw (Chung–Lu), er, road,
// ringcomplete (the Theorem-2 tightness construction), star.
//
// With -shards/-shard-dir the raw edge stream is routed by hash across N
// shard files (shard-0000-of-0016.esh, ...). For rmat and er the stream is
// generated and written in fixed-size chunks without ever materializing the
// edge slice, so memory stays flat no matter the scale; the remaining kinds
// materialize first (their generators are small) and then shard.
//
// -canonical changes the shard layout to canonical stripes: the graph is
// materialized, deduplicated and sorted (exactly FromEdges), and shard i
// holds the i-th contiguous stripe of the canonical edge list. Reading the
// set back in shard-index order (graph.DirSource, dnepart -stream) then
// replays the canonical list, so a streamed partitioning of the directory
// is bit-identical — same checksum — to an in-memory run on the same
// graph. The price is the generator-side materialization; the consumers
// still stream.
//
// -compress (requires -canonical) writes the stripes in the delta+varint
// ESZ1 format (*.esz) instead of raw EShard: the same edge stream, read by
// the same consumers, from several-fold fewer disk bytes. Sortedness is
// what compresses, which is why the flag rides on -canonical.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

func main() {
	spec := gen.Spec{Kind: "rmat", Scale: 16, EF: 16, N: 1 << 16, Alpha: 2.4, Rows: 200, Cols: 220, Seed: 42}
	spec.RegisterFlags(flag.CommandLine)
	var (
		shards   = flag.Int("shards", 0, "write this many EShard files instead of a text edge list")
		shardDir = flag.String("shard-dir", "", "directory for -shards output (created if missing)")
		canon    = flag.Bool("canonical", false, "shard as canonical stripes (dedup+sorted; dnepart -stream output matches in-memory runs)")
		compress = flag.Bool("compress", false, "with -canonical: write delta+varint compressed ESZ1 shards (*.esz)")
	)
	flag.Parse()

	if *canon && *shards <= 0 {
		fmt.Fprintln(os.Stderr, "gengraph: -canonical requires -shards/-shard-dir")
		os.Exit(2)
	}
	if *compress && !*canon {
		fmt.Fprintln(os.Stderr, "gengraph: -compress requires -canonical (only sorted stripes compress)")
		os.Exit(2)
	}
	if *shards > 0 {
		if *shardDir == "" {
			fmt.Fprintln(os.Stderr, "gengraph: -shards requires -shard-dir")
			os.Exit(2)
		}
		if *canon {
			if err := writeCanonicalShards(spec, *shards, *shardDir, *compress); err != nil {
				fatal(err)
			}
			return
		}
		if err := writeShards(spec, *shards, *shardDir); err != nil {
			fatal(err)
		}
		return
	}

	g, err := spec.Graph()
	if err != nil {
		fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "# %s |V|=%d |E|=%d\n", spec.Kind, g.NumVertices(), g.NumEdges())
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if err := graph.WriteEdgeList(os.Stdout, g); err != nil {
		fatal(err)
	}
}

// writeShards streams the generated edges across count shard files. rmat
// and er stream straight from the generator (no full edge slice, memory
// bounded by the writers' chunk buffers); other kinds materialize first.
func writeShards(spec gen.Spec, count int, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var numVertices uint32
	var stream func(emit func(u, v uint32)) error
	switch spec.Kind {
	case "rmat":
		numVertices = uint32(1) << spec.Scale
		stream = func(emit func(u, v uint32)) error {
			gen.StreamRMAT(spec.Scale, spec.EF, spec.Seed, emit)
			return nil
		}
	case "er":
		numVertices = uint32(spec.N)
		stream = func(emit func(u, v uint32)) error {
			gen.StreamER(uint32(spec.N), int64(spec.N*spec.EF), spec.Seed, emit)
			return nil
		}
	default:
		g, err := spec.Graph()
		if err != nil {
			return err
		}
		numVertices = g.NumVertices()
		stream = func(emit func(u, v uint32)) error {
			for _, e := range g.Edges() {
				emit(e.U, e.V)
			}
			return nil
		}
	}

	writers := make([]*graph.ShardWriter, count)
	for i := range writers {
		sw, err := graph.CreateShardFile(filepath.Join(dir, graph.ShardFileName(i, count)),
			graph.ShardInfo{NumVertices: numVertices, Index: uint32(i), Count: uint32(count)})
		if err != nil {
			return err
		}
		writers[i] = sw
	}
	var emitErr error
	err := stream(func(u, v uint32) {
		if emitErr != nil || u == v {
			return
		}
		k := graph.PackEdge(u, v)
		emitErr = writers[graph.ShardRoute(k, uint32(count))].AppendPacked(k)
	})
	if err == nil {
		err = emitErr
	}
	var total uint64
	for _, sw := range writers {
		if cerr := sw.Close(); cerr != nil && err == nil {
			err = cerr
		}
		total += sw.NumWritten()
	}
	if err != nil {
		return err
	}
	fmt.Printf("gengraph: %s |V|=%d raw-edges=%d -> %d shards in %s\n",
		spec.Kind, numVertices, total, count, dir)
	return nil
}

// writeCanonicalShards materializes the graph and stripes its canonical
// edge list across count shard files (graph.WriteCanonicalShards, or the
// compressed ESZ1 variant).
func writeCanonicalShards(spec gen.Spec, count int, dir string, compress bool) error {
	g, err := spec.Graph()
	if err != nil {
		return err
	}
	write, layout := graph.WriteCanonicalShards, "canonical shard stripes"
	if compress {
		write, layout = graph.WriteCanonicalShardsCompressed, "compressed canonical shard stripes"
	}
	if err := write(dir, g, count); err != nil {
		return err
	}
	fmt.Printf("gengraph: %s |V|=%d |E|=%d -> %d %s in %s\n",
		spec.Kind, g.NumVertices(), g.NumEdges(), count, layout, dir)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gengraph:", err)
	os.Exit(1)
}
