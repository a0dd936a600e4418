// Package bench is the experiment harness shared by cmd/expbench and the
// top-level benchmarks: it times partitioner runs, computes the paper's
// metrics, estimates memory scores, and renders aligned tables whose rows
// and series match the paper's figures.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	"github.com/distributedne/dne/internal/partition"
)

// Run is one partitioner execution with its measurements.
type Run struct {
	Partitioner string
	Graph       string
	NumParts    int
	Elapsed     time.Duration
	Quality     partition.Quality
	// Stats is the run's full v2 statistics block (phase timings,
	// iteration counts, communication volume).
	Stats    partition.Stats
	MemBytes int64 // analytic (Stats.PeakMemBytes) or sampled heap peak
	// Checksum is partition.Checksum of the owner array — the shared
	// currency for asserting two runs produced the identical partitioning.
	Checksum uint64
	Err      error
}

// MemScore returns bytes per edge (the Fig. 9 metric).
func (r Run) MemScore(numEdges int64) float64 {
	if numEdges == 0 {
		return 0
	}
	return float64(r.MemBytes) / float64(numEdges)
}

// Execute runs the named registry method on g under the v2 API and
// collects elapsed time, quality and stats. The method and its spec are
// resolved through methods.New, the entry point the CLIs use, so the
// descriptor-declared defaults govern harness runs exactly as they do CLI
// and HTTP runs. Memory is the partitioner's analytic PeakMemBytes when it
// reports one, otherwise a Go heap delta plus the input CSR: every offline
// partitioner holds the whole graph, and the delta alone would credit
// sequential baselines with near-zero footprint.
func Execute(ctx context.Context, name string, g *graph.Graph, spec partition.Spec) Run {
	run := Run{Partitioner: name, NumParts: spec.NumParts}
	before := heapInUse()
	start := time.Now()
	p, spec, err := methods.New(name, spec)
	if err != nil {
		run.Err = err
		return run
	}
	run.Partitioner = p.Name()
	res, err := p.Partition(ctx, g, spec)
	run.Elapsed = time.Since(start)
	if err != nil {
		run.Err = err
		return run
	}
	run.Stats = res.Stats
	// Report pure partitioning time: v2 Partition measures quality
	// internally, and for the cheap hash methods that O(E) epilogue would
	// otherwise dominate the paper-reproduction timing tables.
	if pt := res.Stats.PartitionTime(); pt > 0 {
		run.Elapsed = pt
	}
	if res.Stats.PeakMemBytes > 0 {
		run.MemBytes = res.Stats.PeakMemBytes
	} else {
		after := heapInUse()
		run.MemBytes = int64(after) - int64(before)
		if run.MemBytes < 0 {
			run.MemBytes = 0
		}
		run.MemBytes += g.MemoryFootprint()
	}
	run.Quality = res.Quality
	run.Checksum = partition.Checksum(res.Partitioning.Owner)
	return run
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// Table renders aligned rows for terminal output.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; values are formatted with %v, floats with 3 digits.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.3fs", v.Seconds())
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Print writes the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	fmt.Fprintln(w, line(t.Header))
	var rule []string
	for _, wd := range widths {
		rule = append(rule, strings.Repeat("-", wd))
	}
	fmt.Fprintln(w, line(rule))
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
}
