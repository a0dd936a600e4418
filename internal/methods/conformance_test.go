package methods_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/partition"
)

// TestConformance is the registry-wide v2 contract check: every registered
// method must (a) return promptly with the context's error under a
// cancelled context, (b) under a normal context produce a complete valid
// partitioning with a populated Stats block that names the method by its
// canonical registry name, (c) give the same owners with no params as with
// every declared default passed explicitly — the descriptor is the one
// place a default is written — and (d), when it streams, honor a cancelled
// context on the source path and produce a valid partitioning from it.
func TestConformance(t *testing.T) {
	g := gen.RMAT(9, 8, 3) // small deterministic graph
	for _, d := range methods.Descriptors() {
		d := d
		t.Run(d.Name+"/cancelled", func(t *testing.T) {
			t.Parallel()
			pr, spec, err := methods.New(d.Name, partition.NewSpec(4, 42))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start := time.Now()
			res, err := pr.Partition(ctx, g, spec)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("cancelled context accepted")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if res != nil {
				t.Error("non-nil result alongside error")
			}
			if elapsed > 5*time.Second {
				t.Errorf("cancellation took %v, not prompt", elapsed)
			}
		})
		t.Run(d.Name+"/normal", func(t *testing.T) {
			t.Parallel()
			pr, spec, err := methods.New(d.Name, partition.NewSpec(4, 42))
			if err != nil {
				t.Fatal(err)
			}
			res, err := pr.Partition(context.Background(), g, spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Partitioning.Validate(g); err != nil {
				t.Fatal(err)
			}
			if res.Quality.ReplicationFactor < 1 {
				t.Errorf("quality snapshot missing: %+v", res.Quality)
			}
			st := res.Stats
			if st.Method != d.Name || st.NumParts != 4 {
				t.Errorf("stats identity: method %q parts %d, want %q 4", st.Method, st.NumParts, d.Name)
			}
			if st.Wall <= 0 {
				t.Errorf("stats wall time not populated: %+v", st)
			}
			if len(st.Phases) == 0 {
				t.Errorf("stats phases not populated: %+v", st)
			}

			defaults := map[string]any{}
			for _, p := range d.Params {
				defaults[p.Name] = p.Default
			}
			pr, spec, err = methods.New(d.Name, partition.Spec{NumParts: 4, Seed: 42, Params: defaults})
			if err != nil {
				t.Fatal(err)
			}
			explicit, err := pr.Partition(context.Background(), g, spec)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := partition.Checksum(res.Partitioning.Owner), partition.Checksum(explicit.Partitioning.Owner); a != b {
				t.Errorf("owners with no params %#x != with every default passed explicitly %#x", a, b)
			}
		})
		if !d.Streams {
			continue
		}
		t.Run(d.Name+"/stream", func(t *testing.T) {
			t.Parallel()
			pr, spec, err := methods.New(d.Name, partition.NewSpec(4, 42))
			if err != nil {
				t.Fatal(err)
			}
			sp := pr.(partition.StreamPartitioner)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := sp.PartitionStream(ctx, graph.SourceOf(g), spec); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled source path: want context.Canceled, got %v", err)
			}
			res, err := sp.PartitionStream(context.Background(), graph.SourceOf(g), spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Partitioning.Validate(g); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMidRunCancellation cancels while the heavyweight methods are running
// and expects them to stop well before finishing naturally.
func TestMidRunCancellation(t *testing.T) {
	g := gen.RMAT(13, 16, 3)
	for _, name := range []string{"dne", "distlp", "hdrf", "sne", "fennel", "ne"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pr, spec, err := methods.New(name, partition.NewSpec(8, 42))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(2 * time.Millisecond)
				cancel()
			}()
			_, err = pr.Partition(ctx, g, spec)
			// A fast method may legitimately finish before the cancel lands;
			// an error must then be the context's.
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled or success, got %v", err)
			}
		})
	}
}

// graphFamilies are the structural corner cases every partitioner must
// survive: skewed, regular, degenerate, and adversarial shapes.
func graphFamilies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat":         gen.RMAT(9, 8, 3),
		"road":         gen.Road(24, 24, 3),
		"star":         gen.Star(1 << 9),
		"ba":           gen.BarabasiAlbert(1<<9, 3, 3),
		"ws":           gen.WattsStrogatz(1<<9, 6, 0.2, 3),
		"ringcomplete": gen.RingPlusComplete(6),
		"single-edge":  graph.FromEdges(0, []graph.Edge{{U: 0, V: 1}}),
		"path":         graph.FromEdges(0, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}),
	}
}

func TestInvariantsEveryMethodEveryFamily(t *testing.T) {
	for fam, g := range graphFamilies() {
		for _, name := range methods.Names() {
			fam, g, name := fam, g, name
			t.Run(fam+"/"+name, func(t *testing.T) {
				t.Parallel()
				parts := 4
				if g.NumEdges() < 4 {
					parts = 2
				}
				pr, spec := newMethod(t, name, parts)
				res, err := pr.Partition(context.Background(), g, spec)
				if err != nil {
					t.Fatal(err)
				}
				pt := res.Partitioning
				// Complete, in-range cover.
				if err := pt.Validate(g); err != nil {
					t.Fatal(err)
				}
				// Edge counts sum to |E|.
				var sum int64
				for _, c := range pt.EdgeCounts() {
					sum += c
				}
				if sum != g.NumEdges() {
					t.Fatalf("edge counts sum %d != |E| %d", sum, g.NumEdges())
				}
				// RF bounds: covered vertices are counted at least once and
				// at most parts times.
				q := res.Quality
				if q.Replicas < 0 || q.ReplicationFactor > float64(parts) {
					t.Fatalf("quality out of bounds: %+v", q)
				}
				if q.VertexCuts < 0 {
					t.Fatalf("negative vertex cuts: %+v", q)
				}
			})
		}
	}
}

func TestSinglePartitionIsTrivial(t *testing.T) {
	g := gen.RMAT(8, 4, 1)
	for _, name := range methods.Names() {
		pr, spec := newMethod(t, name, 1)
		res, err := pr.Partition(context.Background(), g, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, o := range res.Partitioning.Owner {
			if o != 0 {
				t.Fatalf("%s: edge %d owner %d with P=1", name, i, o)
			}
		}
		// With one partition every covered vertex has exactly one replica.
		if res.Quality.VertexCuts != 0 {
			t.Errorf("%s: vertex cuts %d with P=1", name, res.Quality.VertexCuts)
		}
	}
}

func TestDeterminismForFixedSeed(t *testing.T) {
	g := gen.RMAT(9, 8, 5)
	for _, name := range methods.Names() {
		a, specA := newMethod(t, name, 8)
		b, specB := newMethod(t, name, 8)
		ra, err := a.Partition(context.Background(), g, specA)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rb, err := b.Partition(context.Background(), g, specB)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range ra.Partitioning.Owner {
			if ra.Partitioning.Owner[i] != rb.Partitioning.Owner[i] {
				t.Errorf("%s: owners differ at edge %d (%d vs %d)",
					name, i, ra.Partitioning.Owner[i], rb.Partitioning.Owner[i])
				break
			}
		}
	}
}

func TestQualityClassOrdering(t *testing.T) {
	// The paper's central quality claim at miniature scale: the greedy /
	// multilevel methods (dne, ne, metis) must clearly beat Random on a
	// skewed graph.
	g := gen.RMAT(11, 16, 7)
	rf := func(name string) float64 {
		pr, spec := newMethod(t, name, 16)
		res, err := pr.Partition(context.Background(), g, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Quality.ReplicationFactor
	}
	random := rf("random")
	for _, name := range []string{"dne", "ne", "metis"} {
		if got := rf(name); got >= random*0.6 {
			t.Errorf("%s RF %.3f not clearly below random %.3f", name, got, random)
		}
	}
}
