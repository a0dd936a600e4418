// Command dnepart partitions a graph with any of the repository's
// partitioners and reports quality metrics.
//
// Usage:
//
//	dnepart -in graph.txt -parts 16 [-method dne] [-out owners.txt] [-save live/]
//	dnepart -shard-dir shards/ -parts 4 -method dne -checksum
//	dnepart -stream -shard-dir shards/ -parts 16 -method hdrf -checksum
//	dnepart -rmat 16 -ef 16 -parts 16 -method dne -params lambda=0.05,alpha=1.2
//	dnepart -list-methods
//
// The input is a whitespace edge list ("u v" per line, '#' comments), a
// directory of EShard files written by gengraph -shards (-shard-dir), or a
// synthetic RMAT graph (-rmat). -checksum prints the partitioning checksum, directly
// comparable with the RESULT line of a multi-process dneworker run over the
// same graph/seed/parts.
//
// -stream partitions without materializing the input: the shard dir or
// generator becomes a graph.Source consumed by the method's
// streaming core (stream-capable methods run in dense-state + chunk
// memory; the rest materialize transparently and say so in the stats). For
// canonical shard sets (gengraph -canonical) the streamed partitioning is
// bit-identical to the in-memory run — same checksum. Shard directories
// may be raw (*.esh) or compressed (*.esz, gengraph -compress). The stream
// report adds edges/sec and, for disk sources, bytes read.
//
// The output file (optional) has one "u v partition" line per edge; -save
// writes the partitioning as a graph directory (live.Create: one sorted
// ESZ1 base per partition, shard-QQQQ-of-PPPP.esz), which live.Open opens
// as a serving graph and dneserve restores as the graph <name> when it is
// placed as <graph-dir>/<name>/. Both need the materialized graph, so
// neither combines with -stream. Methods and their parameters come from the method registry;
// -list-methods prints the generated table.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/partition"
)

func main() {
	var (
		in       = flag.String("in", "", "input edge-list file")
		shardDir = flag.String("shard-dir", "", "input directory of EShard files (gengraph -shards) instead of -in")
		out      = flag.String("out", "", "output assignment file (u v part)")
		save     = flag.String("save", "", "output graph directory (per-partition ESZ1 bases; dneserve serves it from under -graph-dir)")
		parts    = flag.Int("parts", 16, "number of partitions")
		method   = flag.String("method", "dne", "partitioning method (see -list-methods)")
		rmat     = flag.Int("rmat", 0, "generate RMAT graph with 2^scale vertices instead of -in")
		ef       = flag.Int("ef", 16, "edge factor for -rmat")
		seed     = flag.Int64("seed", 42, "random seed")
		params   = flag.String("params", "", "per-method params as k=v[,k=v...], e.g. alpha=1.2,lambda=0.05")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
		checksum = flag.Bool("checksum", false, "print the partitioning checksum (comparable with dneworker's RESULT line)")
		stream   = flag.Bool("stream", false, "partition from the input as an edge source, without materializing a graph")
		list     = flag.Bool("list-methods", false, "print the registered methods and their parameters")
	)
	flag.Parse()

	if *list {
		printMethods(os.Stdout)
		return
	}

	spec := partition.NewSpec(*parts, *seed)
	var err error
	spec.Params, err = parseParams(*params)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var res *partition.Result
	var g *graph.Graph // nil on the stream path
	var numEdges int64
	methodName := *method
	if *stream {
		if *out != "" || *save != "" {
			fatal(fmt.Errorf("-out and -save need the materialized graph; drop them or drop -stream"))
		}
		src, err := loadSource(*shardDir, *rmat, *ef, *seed)
		if err != nil {
			fatal(err)
		}
		info := src.Info()
		ec := "?" // unknown until a pass (generator sources)
		if info.NumEdges > 0 {
			ec = fmt.Sprint(info.NumEdges)
		}
		fmt.Printf("source: %s |V|=%d |E|=%s\n", info.Name, info.NumVertices, ec)
		res, err = methods.PartitionSource(ctx, methodName, src, spec)
		if err != nil {
			fatal(err)
		}
		numEdges = int64(len(res.Partitioning.Owner))
		if mb, ok := res.Stats.Extra["materialized_graph_bytes"]; ok {
			fmt.Printf("note: %s cannot stream; source materialized (%.1f MB)\n",
				methodName, mb/(1<<20))
		}
	} else {
		g, err = loadGraph(*in, *shardDir, *rmat, *ef, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("graph: |V|=%d |E|=%d avg-degree=%.2f max-degree=%d\n",
			g.NumVertices(), g.NumEdges(), g.AvgDegree(), g.MaxDegree())
		numEdges = g.NumEdges()
		var pr partition.Partitioner
		pr, spec, err = methods.New(methodName, spec)
		if err != nil {
			fatal(err)
		}
		res, err = pr.Partition(ctx, g, spec)
		if err != nil {
			fatal(err)
		}
		if err := res.Partitioning.Validate(g); err != nil {
			fatal(err)
		}
	}
	pt := res.Partitioning
	q := res.Quality
	st := res.Stats
	fmt.Printf("method: %s  partitions: %d  elapsed: %v\n", st.Method, *parts, st.Wall)
	for _, ph := range st.Phases {
		fmt.Printf("  phase %-10s %v\n", ph.Name, ph.Elapsed)
	}
	fmt.Printf("replication factor: %.4f\n", q.ReplicationFactor)
	fmt.Printf("edge balance: %.4f  vertex balance: %.4f  vertex cuts: %d\n",
		q.EdgeBalance, q.VertexBalance, q.VertexCuts)
	if st.PeakMemBytes > 0 {
		fmt.Printf("peak accounted memory: %.1f MB (%.1f B/edge)\n",
			float64(st.PeakMemBytes)/(1<<20), st.MemScore(numEdges))
	}
	if *stream {
		if pt := st.PartitionTime(); pt > 0 && numEdges > 0 {
			fmt.Printf("throughput: %.0f edges/sec (partition time %v)\n",
				float64(numEdges)/pt.Seconds(), pt)
		}
		if br, ok := st.Extra["source_bytes_read"]; ok && br > 0 {
			fmt.Printf("bytes read from source: %.1f MB\n", br/(1<<20))
		}
	}
	if st.Iterations > 0 {
		fmt.Printf("iterations: %d  comm: %.1f MB\n",
			st.Iterations, float64(st.CommBytes)/(1<<20))
	}
	if *checksum {
		fmt.Printf("partitioning checksum: %#x\n", partition.Checksum(pt.Owner))
	}
	if *out != "" {
		if err := writeAssignment(*out, g, pt); err != nil {
			fatal(err)
		}
		fmt.Printf("assignment written to %s\n", *out)
	}
	if *save != "" {
		lv, err := live.Create(*save, live.Config{Seed: *seed}, g, pt)
		if err != nil {
			fatal(err)
		}
		if err := lv.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("live directory written to %s\n", *save)
	}
}

// parseParams parses "k=v,k=v" into a Spec params map. Values decode as
// bool, int or float; the registry coerces them against the method's
// declared kinds.
func parseParams(s string) (map[string]any, error) {
	if s == "" {
		return nil, nil
	}
	params := map[string]any{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad -params entry %q (want k=v)", kv)
		}
		switch {
		case v == "true" || v == "false":
			params[k] = v == "true"
		default:
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -params value %q for %q", v, k)
			}
			params[k] = f
		}
	}
	return params, nil
}

// printMethods renders the registry as an aligned table, generated from the
// descriptors.
func printMethods(w *os.File) {
	for _, d := range methods.Descriptors() {
		cap := ""
		if d.Streams {
			cap = " [streams]"
		}
		fmt.Fprintf(w, "%-10s %s%s\n", d.Name, d.Summary, cap)
		if len(d.Aliases) > 0 {
			fmt.Fprintf(w, "%-10s aliases: %s\n", "", strings.Join(d.Aliases, ", "))
		}
		for _, p := range d.Params {
			fmt.Fprintf(w, "%-10s   -params %s=<%s> (default %v) %s\n", "", p.Name, p.Kind, p.Default, p.Doc)
		}
	}
}

func loadGraph(in, shardDir string, rmat, ef int, seed int64) (*graph.Graph, error) {
	if rmat > 0 {
		return gen.RMAT(rmat, ef, seed), nil
	}
	if shardDir != "" {
		shard, err := graph.ReadShardDir(shardDir, nil)
		if err != nil {
			return nil, err
		}
		return graph.FromPacked(shard.NumVertices, shard.Packed), nil
	}
	if in == "" {
		return nil, fmt.Errorf("either -in, -shard-dir or -rmat is required")
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

// loadSource builds the -stream input: a shard directory or the RMAT
// generator itself (nothing is ever materialized here).
func loadSource(shardDir string, rmat, ef int, seed int64) (graph.Source, error) {
	switch {
	case shardDir != "":
		return graph.DirSource(shardDir)
	case rmat > 0:
		return gen.RMATSource(rmat, ef, seed), nil
	}
	return nil, fmt.Errorf("-stream needs -shard-dir or -rmat")
}

func writeAssignment(path string, g *graph.Graph, pt *partition.Partitioning) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for i, e := range g.Edges() {
		fmt.Fprintf(w, "%d %d %d\n", e.U, e.V, pt.Owner[i])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dnepart:", err)
	os.Exit(1)
}
