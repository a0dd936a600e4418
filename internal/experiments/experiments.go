// Package experiments regenerates every table and figure of the paper's
// evaluation (§5–§7). Each experiment prints the same rows/series the paper
// reports, at the reduced default scales of the stand-ins in
// internal/datasets (README.md, "Benchmarks and experiments"); pass a
// positive shift to scale toward paper size.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/distributedne/dne/internal/bench"
	"github.com/distributedne/dne/internal/bound"
	"github.com/distributedne/dne/internal/datasets"
	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/engine"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/partition"
)

// Options configure an experiment run.
type Options struct {
	// Ctx cancels in-flight partitioner runs (nil = background).
	Ctx context.Context
	// Shift scales every dataset by 2^Shift vertices (0 = defaults,
	// negative = quicker, positive = closer to paper scale).
	Shift int
	// Seed for every randomized component.
	Seed int64
	// PRIters is the PageRank iteration count for Table 5 (paper: 100).
	PRIters int
	// Quick restricts sweeps to fewer points (used by unit tests).
	Quick bool
	Out   io.Writer
}

func (o Options) out() io.Writer { return o.Out }

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// method resolves a registry method; experiments only name methods the
// registry declares, so a miss is a programmer error. The returned
// partitioner resolves every Spec against the descriptor first, so the
// descriptor-declared defaults govern experiment runs exactly as they do
// CLI and HTTP runs.
func method(name string) partition.Partitioner {
	d, ok := methods.Lookup(name)
	if !ok {
		panic("experiments: method not registered: " + name)
	}
	return resolvingMethod{d: d, p: d.Factory()}
}

type resolvingMethod struct {
	d methods.Descriptor
	p partition.Partitioner
}

func (m resolvingMethod) Name() string { return m.p.Name() }

func (m resolvingMethod) Partition(ctx context.Context, g *graph.Graph, spec partition.Spec) (*partition.Result, error) {
	spec, err := m.d.ResolveSpec(spec)
	if err != nil {
		return nil, err
	}
	return m.p.Partition(ctx, g, spec)
}

func (o Options) prIters() int {
	if o.PRIters > 0 {
		return o.PRIters
	}
	return 20
}

// qualityBaselines returns the Fig-8 comparison set in the paper's legend
// order, resolved through the method registry.
func qualityBaselines() []partition.Partitioner {
	names := []string{"random", "grid", "oblivious", "ginger", "spinner", "metis", "sheep", "xtrapulp", "dne"}
	prs := make([]partition.Partitioner, len(names))
	for i, n := range names {
		prs[i] = method(n)
	}
	return prs
}

// Fig6 reproduces Fig. 6: iteration count and replication factor of
// Distributed NE under λ ∈ {1e-4 … 1} on 32 partitions, over the four
// mid-size stand-ins.
func Fig6(o Options) error {
	lambdas := []float64{1e-4, 1e-3, 1e-2, 1e-1, 1.0}
	if o.Quick {
		lambdas = []float64{1e-2, 1e-1, 1.0}
	}
	specs := datasets.Mid()
	const parts = 32
	fmt.Fprintf(o.out(), "Fig. 6 — #iterations and replication factor vs λ (|P| = %d)\n\n", parts)
	t := &bench.Table{Header: []string{"graph", "lambda", "iterations", "RF"}}
	for _, spec := range specs {
		g := spec.Build(o.Shift)
		for _, lam := range lambdas {
			cfg := dne.DefaultConfig()
			cfg.Lambda = lam
			cfg.Seed = o.Seed
			res, err := dne.PartitionCtx(o.ctx(), g, parts, cfg)
			if err != nil {
				return fmt.Errorf("fig6 %s λ=%g: %w", spec.Name, lam, err)
			}
			q := res.Partitioning.Measure(g)
			t.Add(spec.Name, fmt.Sprintf("%.0e", lam), res.Iterations, q.ReplicationFactor)
		}
	}
	t.Print(o.out())
	return nil
}

// Table1 reproduces Table 1: theoretical upper bounds of the replication
// factor on power-law graphs with 256 partitions.
func Table1(o Options) error {
	alphas := []float64{2.2, 2.4, 2.6, 2.8}
	const parts = 256
	fmt.Fprintf(o.out(), "Table 1 — theoretical upper bound of RF in power-law graphs (%d partitions)\n\n", parts)
	t := &bench.Table{Header: []string{"Partitioner", "a=2.2", "a=2.4", "a=2.6", "a=2.8"}}
	row := func(name string, f func(alpha float64) float64) {
		cells := []any{name}
		for _, a := range alphas {
			cells = append(cells, fmt.Sprintf("%.2f", f(a)))
		}
		t.Add(cells...)
	}
	row("Random (1D-hash)", func(a float64) float64 { return bound.Random(a, parts) })
	row("Grid (2D-hash)", func(a float64) float64 { return bound.Grid(a, parts) })
	row("DBH", func(a float64) float64 { return bound.DBH(a, parts) })
	row("Distributed NE", bound.DNE)
	t.Print(o.out())
	return nil
}

// Fig8 reproduces Fig. 8(a)–(g): replication factor of the skewed stand-ins
// across partition counts for all nine quality baselines.
func Fig8(o Options) error {
	partsList := []int{4, 8, 16, 32, 64}
	specs := datasets.Skewed
	if o.Quick {
		partsList = []int{8, 32}
		specs = datasets.Mid()[:2]
	}
	fmt.Fprintln(o.out(), "Fig. 8(a)-(g) — replication factor of skewed graphs")
	for _, spec := range specs {
		g := spec.Build(o.Shift)
		fmt.Fprintf(o.out(), "\n%s (|V|=%d |E|=%d; paper: %s vertices, %s edges)\n",
			spec.Name, g.NumVertices(), g.NumEdges(), spec.PaperVertices, spec.PaperEdges)
		header := []string{"partitioner"}
		for _, p := range partsList {
			header = append(header, fmt.Sprintf("P=%d", p))
		}
		t := &bench.Table{Header: header}
		for _, pr := range qualityBaselines() {
			cells := []any{pr.Name()}
			for _, parts := range partsList {
				run := bench.Execute(o.ctx(), pr, g, partition.NewSpec(parts, o.Seed))
				if run.Err != nil {
					return fmt.Errorf("fig8 %s %s P=%d: %w", spec.Name, pr.Name(), parts, run.Err)
				}
				cells = append(cells, run.Quality.ReplicationFactor)
			}
			t.Add(cells...)
		}
		t.Print(o.out())
	}
	return nil
}

// Fig8RMAT reproduces Fig. 8(h)–(j): replication factor of RMAT graphs
// across edge factors at |P|=64, for three consecutive scales.
func Fig8RMAT(o Options) error {
	baseScale := 12 + o.Shift
	efs := []int{16, 64, 256, 1024}
	scales := []int{baseScale, baseScale + 1, baseScale + 2}
	const parts = 64
	if o.Quick {
		efs = []int{16, 64}
		scales = scales[:1]
	}
	fmt.Fprintf(o.out(), "Fig. 8(h)-(j) — RF of RMAT graphs vs edge factor (|P| = %d; paper scales 20-22)\n", parts)
	for _, sc := range scales {
		fmt.Fprintf(o.out(), "\nRMAT Scale%d\n", sc)
		header := []string{"partitioner"}
		for _, ef := range efs {
			header = append(header, fmt.Sprintf("EF=%d", ef))
		}
		t := &bench.Table{Header: header}
		comparison := []partition.Partitioner{
			method("xtrapulp"), method("sheep"), method("dne"),
		}
		for _, pr := range comparison {
			cells := []any{pr.Name()}
			for _, ef := range efs {
				g := gen.RMAT(sc, ef, o.Seed+int64(ef))
				run := bench.Execute(o.ctx(), pr, g, partition.NewSpec(parts, o.Seed))
				if run.Err != nil {
					return fmt.Errorf("fig8rmat %s EF=%d: %w", pr.Name(), ef, run.Err)
				}
				cells = append(cells, run.Quality.ReplicationFactor)
			}
			t.Add(cells...)
		}
		t.Print(o.out())
	}
	return nil
}

// Fig9 reproduces Fig. 9: memory score (bytes at peak, normalised by |E|) of
// the high-quality methods on the skewed stand-ins (a) and RMAT graphs (b).
func Fig9(o Options) error {
	const parts = 16
	specs := datasets.Skewed
	if o.Quick {
		specs = datasets.Mid()[:2]
	}
	fmt.Fprintf(o.out(), "Fig. 9 — memory score (total bytes / |E|) on %d machines\n\n", parts)
	t := &bench.Table{Header: []string{"graph", "ParMETIS", "Sheep", "X.P.", "D.NE"}}
	for _, spec := range specs {
		g := spec.Build(o.Shift)
		cells := []any{spec.Name}
		for _, pr := range []partition.Partitioner{
			method("metis"),
			method("sheep"),
			// X.P. runs as DistLP: the distributed label-propagation
			// implementation, whose footprint includes the vertex-partitioned
			// layout's edge replication across machines.
			method("distlp"),
			method("dne"),
		} {
			run := bench.Execute(o.ctx(), pr, g, partition.NewSpec(parts, o.Seed))
			if run.Err != nil {
				return fmt.Errorf("fig9 %s: %w", pr.Name(), run.Err)
			}
			cells = append(cells, fmt.Sprintf("%.1f", run.MemScore(g.NumEdges())))
		}
		t.Add(cells...)
	}
	t.Print(o.out())
	fmt.Fprintln(o.out(), "\n(RMAT series)")
	efs := []int{16, 64, 256}
	if o.Quick {
		efs = []int{16}
	}
	t2 := &bench.Table{Header: []string{"graph", "X.P.", "D.NE"}}
	for _, ef := range efs {
		g := gen.RMAT(11+o.Shift, ef, o.Seed)
		cells := []any{fmt.Sprintf("RMAT s%d EF%d", 11+o.Shift, ef)}
		for _, pr := range []partition.Partitioner{method("distlp"), method("dne")} {
			run := bench.Execute(o.ctx(), pr, g, partition.NewSpec(parts, o.Seed))
			if run.Err != nil {
				return fmt.Errorf("fig9 rmat %s: %w", pr.Name(), run.Err)
			}
			cells = append(cells, fmt.Sprintf("%.1f", run.MemScore(g.NumEdges())))
		}
		t2.Add(cells...)
	}
	t2.Print(o.out())
	return nil
}

// Fig10 reproduces Fig. 10(a)–(g): elapsed partitioning time vs number of
// machines for the high-quality methods.
func Fig10(o Options) error {
	partsList := []int{4, 8, 16, 32, 64}
	specs := datasets.Skewed
	if o.Quick {
		partsList = []int{4, 16}
		specs = datasets.Mid()[:2]
	}
	fmt.Fprintln(o.out(), "Fig. 10(a)-(g) — elapsed time (s) vs number of machines (= partitions)")
	for _, spec := range specs {
		g := spec.Build(o.Shift)
		fmt.Fprintf(o.out(), "\n%s (|V|=%d |E|=%d)\n", spec.Name, g.NumVertices(), g.NumEdges())
		header := []string{"partitioner"}
		for _, p := range partsList {
			header = append(header, fmt.Sprintf("P=%d", p))
		}
		t := &bench.Table{Header: header}
		for _, pr := range []partition.Partitioner{
			method("metis"), method("sheep"), method("xtrapulp"), method("dne"),
		} {
			cells := []any{pr.Name()}
			for _, parts := range partsList {
				run := bench.Execute(o.ctx(), pr, g, partition.NewSpec(parts, o.Seed))
				if run.Err != nil {
					return fmt.Errorf("fig10 %s: %w", pr.Name(), run.Err)
				}
				cells = append(cells, run.Elapsed)
			}
			t.Add(cells...)
		}
		t.Print(o.out())
	}
	return nil
}

// sweepParts is the machine count of Fig. 10(h) and (i).
const sweepParts = 64

// Fig10EF reproduces Fig. 10(h): elapsed time vs edge factor at fixed scale,
// |P| = 64.
func Fig10EF(o Options) error {
	scale := 12 + o.Shift
	efs := []int{16, 64, 256, 1024}
	if o.Quick {
		efs = efs[:2]
	}
	title := fmt.Sprintf("Fig. 10(h) — elapsed time (s) vs edge factor (RMAT Scale%d, |P| = %d)", scale, sweepParts)
	return rmatSweep(o, "fig10ef", title, "EF=%d", efs, func(ef int) (int, int) { return scale, ef })
}

// Fig10Scale reproduces Fig. 10(i): elapsed time vs RMAT scale at fixed edge
// factor on 64 machines. The paper uses EF 1024; the default here is 64
// (shiftable).
func Fig10Scale(o Options) error {
	baseScale := 10 + o.Shift
	scales := []int{baseScale, baseScale + 1, baseScale + 2}
	ef := 64
	if o.Quick {
		scales = scales[:2]
		ef = 16
	}
	title := fmt.Sprintf("Fig. 10(i) — elapsed time (s) vs scale (RMAT EF %d, |P| = %d)", ef, sweepParts)
	return rmatSweep(o, "fig10scale", title, "Scale%d", scales, func(sc int) (int, int) { return sc, ef })
}

// rmatSweep times Sheep, X.P. and D.NE on sweepParts partitions of one RMAT
// graph per swept value x: rmat(x) gives its scale and edge factor, the seed
// is o.Seed+x, and column formats x into the header. id prefixes errors.
func rmatSweep(o Options, id, title, column string, xs []int, rmat func(x int) (scale, ef int)) error {
	fmt.Fprintf(o.out(), "%s\n\n", title)
	header := []string{"partitioner"}
	for _, x := range xs {
		header = append(header, fmt.Sprintf(column, x))
	}
	t := &bench.Table{Header: header}
	for _, pr := range []partition.Partitioner{
		method("sheep"), method("xtrapulp"), method("dne"),
	} {
		cells := []any{pr.Name()}
		for _, x := range xs {
			scale, ef := rmat(x)
			g := gen.RMAT(scale, ef, o.Seed+int64(x))
			run := bench.Execute(o.ctx(), pr, g, partition.NewSpec(sweepParts, o.Seed))
			if run.Err != nil {
				return fmt.Errorf("%s %s: %w", id, pr.Name(), run.Err)
			}
			cells = append(cells, run.Elapsed)
		}
		t.Add(cells...)
	}
	t.Print(o.out())
	return nil
}

// Fig10J reproduces Fig. 10(j) / §7.4: weak scaling toward the trillion-edge
// configuration. Vertices per machine are fixed (paper: 2^22; default here
// 2^11, shiftable) while machines sweep {4, 16, 64} and edge factor sweeps
// {16, 64, 256, 1024} — the paper's largest point (Scale30, EF 1024, 256
// machines) is the 1.1-trillion-edge graph.
func Fig10J(o Options) error {
	perMachineScale := 11 + o.Shift
	machines := []int{4, 16, 64}
	efs := []int{16, 64, 256}
	if o.Quick {
		machines = []int{4, 16}
		efs = []int{16}
	}
	fmt.Fprintf(o.out(), "Fig. 10(j) — weak scaling: 2^%d vertices per machine (paper: 2^22)\n\n", perMachineScale)
	header := []string{"EF \\ machines"}
	for _, m := range machines {
		header = append(header, fmt.Sprintf("%d", m))
	}
	t := &bench.Table{Header: header}
	for _, ef := range efs {
		cells := []any{fmt.Sprintf("EF %d", ef)}
		for _, m := range machines {
			scale := perMachineScale
			for mm := m; mm > 1; mm /= 4 {
				scale += 2 // ×4 machines → ×4 vertices
			}
			g := gen.RMAT(scale, ef, o.Seed+int64(ef*m))
			cfg := dne.DefaultConfig()
			cfg.Seed = o.Seed
			start := time.Now()
			res, err := dne.PartitionCtx(o.ctx(), g, m, cfg)
			if err != nil {
				return fmt.Errorf("fig10j m=%d ef=%d: %w", m, ef, err)
			}
			_ = res
			cells = append(cells, time.Since(start))
		}
		t.Add(cells...)
	}
	t.Print(o.out())
	return nil
}

// Table4 reproduces Table 4 (§7.5): replication factor and elapsed time of
// the sequential/streaming algorithms vs Distributed NE on 64 partitions.
func Table4(o Options) error {
	const parts = 64
	specs := datasets.Mid()
	if o.Quick {
		specs = specs[:2]
	}
	fmt.Fprintf(o.out(), "Table 4 — comparison with sequential algorithms (%d partitions)\n\n", parts)
	prs := []partition.Partitioner{
		method("hdrf"), method("ne"), method("sne"), method("dne"),
	}
	tRF := &bench.Table{Header: append([]string{"RF"}, specNames(specs)...)}
	tTime := &bench.Table{Header: append([]string{"Time(s)"}, specNames(specs)...)}
	graphs := make([]*graph.Graph, len(specs))
	for i, spec := range specs {
		graphs[i] = spec.Build(o.Shift)
	}
	for _, pr := range prs {
		rfCells := []any{pr.Name()}
		timeCells := []any{pr.Name()}
		for i := range specs {
			run := bench.Execute(o.ctx(), pr, graphs[i], partition.NewSpec(parts, o.Seed))
			if run.Err != nil {
				return fmt.Errorf("table4 %s: %w", pr.Name(), run.Err)
			}
			rfCells = append(rfCells, run.Quality.ReplicationFactor)
			timeCells = append(timeCells, run.Elapsed)
		}
		tRF.Add(rfCells...)
		tTime.Add(timeCells...)
	}
	tRF.Print(o.out())
	fmt.Fprintln(o.out())
	tTime.Print(o.out())
	return nil
}

// Table5 reproduces Table 5 (§7.6): SSSP, WCC and PageRank over 64
// partitions for five partitioners, reporting partition quality (RF/EB/VB)
// and per-application elapsed time, communication volume and workload
// balance.
func Table5(o Options) error {
	parts := 64
	specs := datasets.Mid()
	if o.Quick {
		parts = 16
		specs = specs[:1]
	}
	prs := []partition.Partitioner{
		method("random"), method("grid"), method("oblivious"), method("ginger"), method("dne"),
	}
	fmt.Fprintf(o.out(), "Table 5 — graph applications on %d partitions (PageRank: %d iterations)\n", parts, o.prIters())
	for _, spec := range specs {
		g := spec.Build(o.Shift)
		fmt.Fprintf(o.out(), "\n%s (|V|=%d |E|=%d)\n", spec.Name, g.NumVertices(), g.NumEdges())
		t := &bench.Table{Header: []string{
			"partitioner", "RF", "EB", "VB",
			"SSSP ET", "SSSP COM(MB)", "SSSP WB",
			"WCC ET", "WCC COM(MB)", "WCC WB",
			"PR ET", "PR COM(MB)", "PR WB",
		}}
		for _, pr := range prs {
			res, err := pr.Partition(o.ctx(), g, partition.NewSpec(parts, o.Seed))
			if err != nil {
				return fmt.Errorf("table5 %s: %w", pr.Name(), err)
			}
			pt := res.Partitioning
			q := res.Quality
			cells := []any{pr.Name(), q.ReplicationFactor, q.EdgeBalance, q.VertexBalance}
			e := engine.New(g, pt)
			for _, app := range []string{"sssp", "wcc", "pr"} {
				e.ResetStats()
				start := time.Now()
				switch app {
				case "sssp":
					e.SSSP(0)
				case "wcc":
					e.WCC()
				case "pr":
					e.PageRank(o.prIters(), 0.85)
				}
				et := time.Since(start)
				cells = append(cells, et,
					fmt.Sprintf("%.1f", float64(e.CommBytes)/(1<<20)), e.WorkloadBalance())
			}
			t.Add(cells...)
		}
		t.Print(o.out())
	}
	return nil
}

// Table6 reproduces Table 6 (§7.7): replication factor on non-skewed road
// networks for eight partitioners.
func Table6(o Options) error {
	const parts = 64
	roads := datasets.Roads
	if o.Quick {
		roads = roads[:1]
	}
	fmt.Fprintf(o.out(), "Table 6 — replication factor of road networks (%d partitions)\n\n", parts)
	prs := []partition.Partitioner{
		method("random"), method("grid"), method("oblivious"), method("ginger"),
		method("metis"), method("sheep"), method("xtrapulp"), method("dne"),
	}
	header := []string{"graph"}
	for _, pr := range prs {
		header = append(header, pr.Name())
	}
	t := &bench.Table{Header: header}
	for _, rd := range roads {
		g := rd.Build(o.Shift)
		cells := []any{rd.Name}
		for _, pr := range prs {
			run := bench.Execute(o.ctx(), pr, g, partition.NewSpec(parts, o.Seed))
			if run.Err != nil {
				return fmt.Errorf("table6 %s: %w", pr.Name(), run.Err)
			}
			cells = append(cells, run.Quality.ReplicationFactor)
		}
		t.Add(cells...)
	}
	t.Print(o.out())
	return nil
}

func specNames(specs []datasets.Spec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// All maps experiment ids to their runners, in paper order.
var All = []struct {
	ID   string
	Desc string
	Run  func(Options) error
}{
	{"fig6", "iterations and RF vs lambda (32 partitions)", Fig6},
	{"table1", "theoretical upper bounds (zeta closed forms)", Table1},
	{"fig8", "RF of skewed graphs vs partition count", Fig8},
	{"fig8rmat", "RF of RMAT graphs vs edge factor", Fig8RMAT},
	{"fig9", "memory score of high-quality partitioners", Fig9},
	{"fig10", "elapsed time vs machines", Fig10},
	{"fig10ef", "elapsed time vs edge factor", Fig10EF},
	{"fig10scale", "elapsed time vs RMAT scale", Fig10Scale},
	{"fig10j", "weak scaling toward trillion edges", Fig10J},
	{"table4", "comparison with sequential algorithms", Table4},
	{"table5", "graph applications (SSSP/WCC/PageRank)", Table5},
	{"table6", "road networks (non-skewed)", Table6},
	{"extdyn", "§8 extension: dynamic-graph incremental maintenance", ExtDynamic},
	{"extpl", "§6 premise: power-law fits of the stand-ins", ExtPowerLaw},
}
