// Command graphstat reports the degree statistics and power-law tail fit of
// a graph — the calibration the paper's Table-1 analysis rests on (its
// bounds are parameterised by the Clauset-formulation scaling parameter α,
// Eq. 6). Feed it a synthetic graph or an edge-list file to check that a
// dataset has the degree skew the skewed-graph claims require.
//
// Usage:
//
//	graphstat -kind rmat -scale 16 -ef 16
//	graphstat -in graph.txt
//	graphstat -shard-dir shards/               # EShard set, no conversion
//	graphstat -kind road -rows 200 -cols 220   # non-skewed contrast
//	graphstat -kind ringcomplete -n 8          # Theorem-2 construction
//
// -shard-dir inspects a directory of EShard files in place: the set is
// validated exactly like every shard consumer (ReadShardDir's checks), and
// the degree statistics come from one streaming pass — the edge list is
// never materialized, so a shard set bigger than memory still inspects
// fine. Raw (*.esh), compressed (*.esz, gengraph -compress) and mixed
// directories are all recognized; a per-file table reports decoded edges,
// on-disk bytes and the compression ratio against the raw encoding.
// Degrees count the raw stream: a hash-routed set written by plain
// gengraph -shards counts duplicate samples per occurrence, a canonical
// set (gengraph -canonical) matches the materialized graph exactly.
//
// Output includes the Table-1 theoretical replication-factor bounds
// evaluated at the fitted α when 2 < α < 3.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/distributedne/dne/internal/bound"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
	"github.com/distributedne/dne/internal/powerlaw"
)

func main() {
	spec := gen.Spec{Kind: "rmat", Scale: 14, EF: 16, N: 1 << 16, Alpha: 2.4, Rows: 200, Cols: 220, Seed: 42}
	spec.RegisterFlags(flag.CommandLine)
	var (
		in       = flag.String("in", "", "edge-list file (overrides -kind)")
		shardDir = flag.String("shard-dir", "", "EShard directory to inspect in place (overrides -kind)")
		parts    = flag.Int("p", 256, "partition count for the bound table")
		ccdf     = flag.Bool("ccdf", false, "also dump the degree CCDF (value<TAB>ccdf)")
	)
	flag.Parse()

	degs, err := loadDegrees(*shardDir, *in, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphstat:", err)
		os.Exit(1)
	}
	h := powerlaw.NewHistogram(degs)
	s := h.Summary()
	fmt.Printf("degree skew: mean=%.2f p99=%d max=%d gini=%.3f\n", s.Mean, s.P99, s.Max, s.Gini)

	fit, err := powerlaw.FitTail(degs)
	if err != nil {
		fmt.Printf("power-law fit: n/a (%v)\n", err)
	} else {
		fmt.Println(fit)
		verdict := "weak or non-power-law tail"
		switch {
		case fit.KS < 0.05:
			verdict = "strong power-law tail"
		case fit.KS < 0.15:
			verdict = "plausible power-law tail"
		}
		fmt.Printf("verdict: %s (KS=%.4f)\n", verdict, fit.KS)
		if fit.Alpha > 2 && fit.Alpha < 3 {
			fmt.Printf("\nTable-1 theoretical RF bounds at fitted alpha=%.2f, |P|=%d:\n", fit.Alpha, *parts)
			fmt.Printf("  Random (1D-hash)  %.2f\n", bound.Random(fit.Alpha, *parts))
			fmt.Printf("  Grid   (2D-hash)  %.2f\n", bound.Grid(fit.Alpha, *parts))
			fmt.Printf("  DBH               %.2f\n", bound.DBH(fit.Alpha, *parts))
			fmt.Printf("  Distributed NE    %.2f\n", bound.DNE(fit.Alpha))
		}
	}

	if *ccdf {
		fmt.Println("\n# degree\tccdf")
		if err := h.WriteLogLog(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "graphstat:", err)
			os.Exit(1)
		}
	}
}

// loadDegrees produces the non-zero degree sequence: from a streaming pass
// over a shard directory (nothing materialized), or from a materialized
// graph for the other inputs.
func loadDegrees(shardDir, in string, spec gen.Spec) ([]int64, error) {
	if shardDir != "" {
		src, err := graph.DirSource(shardDir)
		if err != nil {
			return nil, err
		}
		info := src.Info()
		if err := printShardFiles(shardDir); err != nil {
			return nil, err
		}
		deg, _, _, err := partition.DegreesAndCounts(context.Background(), src)
		if err != nil {
			return nil, err
		}
		degs := make([]int64, 0, len(deg))
		var maxDeg int64
		for _, d := range deg {
			if d > 0 {
				degs = append(degs, int64(d))
				if int64(d) > maxDeg {
					maxDeg = int64(d)
				}
			}
		}
		avg := 0.0
		if info.NumVertices > 0 {
			avg = 2 * float64(info.NumEdges) / float64(info.NumVertices)
		}
		fmt.Printf("shard set: %s (validated, streamed)\n", info.Name)
		fmt.Printf("graph: |V|=%d |E|=%d avg-degree=%.2f max-degree=%d\n",
			info.NumVertices, info.NumEdges, avg, maxDeg)
		return degs, nil
	}
	g, err := load(in, spec)
	if err != nil {
		return nil, err
	}
	fmt.Printf("graph: |V|=%d |E|=%d avg-degree=%.2f max-degree=%d\n",
		g.NumVertices(), g.NumEdges(), g.AvgDegree(), g.MaxDegree())
	degs := make([]int64, 0, g.NumVertices())
	for v := uint32(0); v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > 0 {
			degs = append(degs, d)
		}
	}
	return degs, nil
}

// printShardFiles reports each shard file's on-disk footprint: decoded
// edges, bytes on disk, and the compression ratio against what the raw
// EShard encoding of the same edges would occupy (1.00 for raw files).
func printShardFiles(dir string) error {
	stats, err := graph.ShardDirStats(dir)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %-6s %12s %12s %7s\n", "# file", "format", "edges", "disk-bytes", "ratio")
	var edges uint64
	var disk, raw int64
	for _, st := range stats {
		format := "raw"
		if st.Compressed {
			format = "esz1"
		}
		fmt.Printf("%-28s %-6s %12d %12d %6.2fx\n",
			filepath.Base(st.Path), format, st.Edges, st.DiskBytes, st.Ratio)
		edges += st.Edges
		disk += st.DiskBytes
		raw += int64(float64(st.DiskBytes) * st.Ratio)
	}
	totalRatio := 1.0
	if disk > 0 {
		totalRatio = float64(raw) / float64(disk)
	}
	fmt.Printf("%-28s %-6s %12d %12d %6.2fx\n", "# total", "", edges, disk, totalRatio)
	return nil
}

func load(in string, spec gen.Spec) (*graph.Graph, error) {
	if in == "" {
		return spec.Graph()
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}
