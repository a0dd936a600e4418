package dnebench

import (
	"cmp"
	"context"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/partition"
)

// ownersChecksum is partition.Checksum — the shared currency that dnepart
// -checksum and the multi-process dneworker print, so the golden values
// below are directly comparable with CLI output.
func ownersChecksum(owner []int32) uint64 { return partition.Checksum(owner) }

// streamNames returns the canonical names of every stream-capable method,
// sorted: the methods whose source path must match the in-memory one.
func streamNames() []string {
	var names []string
	for _, d := range methods.Descriptors() {
		if d.Streams {
			names = append(names, d.Name)
		}
	}
	return names
}

// Most checksums below were produced by the map/comparator-sort
// implementations that predate internal/dsa (the hash-map boundaries, the
// sort.Slice CSR build, the per-machine subgraph scans); the dense rewrite
// reproduces them bit for bit. The four replica-greedy streaming methods
// (hdrf, sne, fennel, oblivious) were re-goldened when the input API moved
// to edge sources: their in-memory rng.Perm(|E|) — which requires random
// access to the whole edge list — became the O(|E|/B)-memory streaming
// bucket shuffle (graph.Shuffled), a different but equally deterministic
// seeded order. Every other method, including the order-independent
// streaming hash rules (random, grid, dbh, hybrid) and ginger, is unchanged
// from the pre-dsa output. Same partition.Spec (seed) ⇒ same Partitioning,
// for every registered method, on both the graph and the source path
// (TestSourcePathMatchesInMemory below).

func graphChecksum(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range g.Edges() {
		buf[0], buf[1], buf[2], buf[3] = byte(e.U), byte(e.U>>8), byte(e.U>>16), byte(e.U>>24)
		buf[4], buf[5], buf[6], buf[7] = byte(e.V), byte(e.V>>8), byte(e.V>>16), byte(e.V>>24)
		h.Write(buf[:])
	}
	for v := graph.Vertex(0); v < g.NumVertices(); v++ {
		ie := g.IncidentEdges(v)
		for i, nb := range g.Neighbors(v) {
			buf[0], buf[1], buf[2], buf[3] = byte(nb), byte(nb>>8), byte(nb>>16), byte(nb>>24)
			buf[4], buf[5], buf[6], buf[7] = byte(ie[i]), byte(ie[i]>>8), byte(ie[i]>>16), byte(ie[i]>>24)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func TestGraphBuildGolden(t *testing.T) {
	if got := graphChecksum(gen.RMAT(12, 8, 7)); got != 0x861602950186f519 {
		t.Fatalf("RMAT(12,8,7) graph checksum %#x changed (edges or CSR layout differ from the pre-dsa build)", got)
	}
	if got := graphChecksum(gen.Road(48, 48, 3)); got != 0x7add2b10d585a25 {
		t.Fatalf("Road(48,48,3) graph checksum %#x changed", got)
	}
}

func TestSeededPartitioningsGolden(t *testing.T) {
	golden := map[string]map[string]uint64{
		"rmat12": {
			"dbh":       0xbffd72f4e31363d2,
			"distlp":    0x9ae611968fb9abd7,
			"dne":       0xc53659fb84986f50,
			"fennel":    0x376e7b2745cf56e3,
			"ginger":    0x2fd4affa7fdfd472,
			"grid":      0x387902484d2ebfb3,
			"hdrf":      0xb14938594be6f7b5,
			"hybrid":    0xa3191c3543d1f451,
			"metis":     0xdfec932faa158691,
			"ne":        0x156a04e9a1f79e51,
			"oblivious": 0x376e7b2745cf56e3,
			"random":    0xdc2f30f3ebb52141,
			"sheep":     0x32fff370a3dba6e6,
			"sne":       0x20eb0f1f3b23da87,
			"spinner":   0xa3e562226d0d1582,
			"xtrapulp":  0xbea748b41315df3,
		},
		"road48": {
			"dbh":       0xa8627938ae39f763,
			"distlp":    0x9a8262c1cb0e8687,
			"dne":       0x6752176e523fa6d2,
			"fennel":    0x7431a426ea7b4580,
			"ginger":    0xfdc7021ab9aa02c4,
			"grid":      0x9048c3b95dcfff76,
			"hdrf":      0xb78f089113cb0a83,
			"hybrid":    0x19194b08b14c9d77,
			"metis":     0x634a4b33bc4d49c3,
			"ne":        0x2e756c365a468980,
			"oblivious": 0x7431a426ea7b4580,
			"random":    0x6d7c8e4a77840284,
			"sheep":     0xbb7bef9bc890a434,
			"sne":       0x1d5fb3f801523726,
			"spinner":   0xc1aa2bd08ab55a14,
			"xtrapulp":  0xa92c8f0858f9f737,
		},
	}
	graphs := map[string]*graph.Graph{
		"rmat12": gen.RMAT(12, 8, 7),
		"road48": gen.Road(48, 48, 3),
	}
	for glabel, want := range golden {
		g := graphs[glabel]
		for name, sum := range want {
			t.Run(glabel+"/"+name, func(t *testing.T) {
				if testing.Short() && glabel == "road48" {
					t.Skip("short: one graph is enough")
				}
				p, spec, err := methods.New(name, partition.Spec{NumParts: 8, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Partition(context.Background(), g, spec)
				if err != nil {
					t.Fatal(err)
				}
				if got := ownersChecksum(res.Partitioning.Owner); got != sum {
					t.Fatalf("%s on %s: seeded partitioning checksum %#x, want %#x (pre-dsa output)", name, glabel, got, sum)
				}
			})
		}
	}
}

// liveOwnerDigest is FNV-64a over every live (packed edge, owner) pair in
// packed-key order, 12 little-endian bytes per pair.
func liveOwnerDigest(lv *live.Live) uint64 {
	ep := lv.Epoch()
	var pairs [][2]uint64
	for q := 0; q < ep.NumShards(); q++ {
		for _, k := range ep.ShardEdgesPacked(q) {
			pairs = append(pairs, [2]uint64{k, uint64(q)})
		}
	}
	slices.SortFunc(pairs, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
	h := fnv.New64a()
	var b [12]byte
	for _, kq := range pairs {
		binary.LittleEndian.PutUint64(b[:8], kq[0])
		binary.LittleEndian.PutUint32(b[8:], uint32(kq[1]))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestDynamicSeededStreamGolden pins live placement to its seeded output: a
// churn stream applied with interleaved bounded rebalancing must be a pure
// function of (stream, seed). The second case seeds from a maximally skewed
// static assignment through live.Create so the migration path does real
// work (thousands of moves) under the digest. Both constants predate the
// dense live state: the map-based partitioner it replaced produced them.
func TestDynamicSeededStreamGolden(t *testing.T) {
	t.Run("churn", func(t *testing.T) {
		g := gen.RMAT(10, 8, 7)
		lv, err := live.Open(t.TempDir(), live.Config{NumParts: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer lv.Close()
		events := dynpart.Churn(g, 20000, 0.2, 7)
		for i := 0; i < len(events); i += 1000 {
			if _, err := lv.Apply(events[i:min(i+1000, len(events))]); err != nil {
				t.Fatal(err)
			}
			if _, err := lv.Rebalance(256); err != nil {
				t.Fatal(err)
			}
		}
		if got := liveOwnerDigest(lv); got != 0xf39bcedd789c988e {
			t.Fatalf("seeded churn checksum %#x changed", got)
		}
	})
	t.Run("rebalance", func(t *testing.T) {
		g := gen.RMAT(10, 8, 7)
		p := partition.New(8, g.NumEdges())
		for i := range p.Owner {
			p.Owner[i] = 0
		}
		lv, err := live.Create(t.TempDir(), live.Config{Seed: 7}, g, p)
		if err != nil {
			t.Fatal(err)
		}
		defer lv.Close()
		moved, err := lv.Rebalance(4000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lv.Apply(dynpart.Churn(g, 10000, 0.3, 7)); err != nil {
			t.Fatal(err)
		}
		more, err := lv.Rebalance(4000)
		if err != nil {
			t.Fatal(err)
		}
		moved += more
		if err := lv.State().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if moved == 0 {
			t.Fatal("rebalance moved nothing; the migration path is not exercised")
		}
		if got := liveOwnerDigest(lv); got != 0xabb74040e0b9b326 {
			t.Fatalf("seeded rebalance checksum %#x changed (moved %d)", got, moved)
		}
	})
}

// writeCanonicalShards writes g as count canonical EShard stripes into a
// fresh directory and returns it. Read back in shard-index order the
// stripes replay the canonical edge list, which is what makes the source
// path comparable bit for bit with the in-memory path.
func writeCanonicalShards(t *testing.T, g *graph.Graph, count int) string {
	t.Helper()
	dir := t.TempDir()
	if err := graph.WriteCanonicalShards(dir, g, count); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestSourcePathMatchesInMemory is the differential check of the source
// redesign: for every Streams-capable method, partitioning the seeded RMAT
// from a canonical shard directory (the O(chunk) disk path) must equal the
// in-memory graph path bit for bit — same owner checksum, same quality
// numbers.
func TestSourcePathMatchesInMemory(t *testing.T) {
	g := gen.RMAT(12, 8, 7)
	dir := writeCanonicalShards(t, g, 4)
	src, err := graph.DirSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.Info().NumEdges != g.NumEdges() {
		t.Fatalf("shard dir declares %d edges, graph has %d", src.Info().NumEdges, g.NumEdges())
	}
	streams := streamNames()
	if len(streams) < 8 {
		t.Fatalf("expected at least 8 stream-capable methods, got %v", streams)
	}
	for _, name := range streams {
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
				t.Fatalf("source-path checksum %#x != in-memory %#x", got, want)
			}
			if srcRes.Quality != mem.Quality {
				t.Fatalf("source-path quality %+v != in-memory %+v", srcRes.Quality, mem.Quality)
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

// TestNonStreamingMethodMaterializes checks the transparent fallback: a
// method without the Streams capability still partitions a source, with the
// materialization surfaced in its stats.
func TestNonStreamingMethodMaterializes(t *testing.T) {
	g := gen.RMAT(10, 8, 7)
	dir := writeCanonicalShards(t, g, 2)
	src, err := graph.DirSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := methods.PartitionSource(context.Background(), "ne", src, partition.NewSpec(8, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partitioning.Validate(g); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Extra["materialized_graph_bytes"] <= 0 {
		t.Fatalf("materialization not surfaced in stats: %+v", res.Stats)
	}
	if res.Stats.Phases[0].Name != "materialize" {
		t.Fatalf("materialize phase missing: %+v", res.Stats.Phases)
	}
	pr, resolved, err := methods.New("ne", partition.NewSpec(8, 7))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := pr.Partition(context.Background(), g, resolved)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ownersChecksum(res.Partitioning.Owner), ownersChecksum(mem.Partitioning.Owner); got != want {
		t.Fatalf("materialized source-path checksum %#x != in-memory %#x", got, want)
	}
}

// TestStreamingMemoryBudget is the acceptance check of the source redesign:
// HDRF partitions the seeded ~1M-edge RMAT from a shard directory with an
// accounted peak at most 1/4 of the materialized-graph baseline (the
// in-memory path's accounted peak, dominated by the resident graph), while
// producing the bit-identical partitioning.
func TestStreamingMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short: 1M-edge differential run")
	}
	g := gen.RMAT(16, 16, 7)
	dir := writeCanonicalShards(t, g, 4)
	src, err := graph.DirSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := partition.NewSpec(16, 7)
	pr, resolved, err := methods.New("hdrf", spec)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := pr.Partition(context.Background(), g, resolved)
	if err != nil {
		t.Fatal(err)
	}
	srcRes, err := methods.PartitionSource(context.Background(), "hdrf", src, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ownersChecksum(srcRes.Partitioning.Owner), ownersChecksum(mem.Partitioning.Owner); got != want {
		t.Fatalf("source-path checksum %#x != in-memory %#x", got, want)
	}
	baseline := mem.Stats.PeakMemBytes
	stream := srcRes.Stats.PeakMemBytes
	t.Logf("|E|=%d: stream path %.1f MiB vs materialized baseline %.1f MiB (%.2fx less)",
		g.NumEdges(), float64(stream)/(1<<20), float64(baseline)/(1<<20), float64(baseline)/float64(stream))
	if baseline < g.MemoryFootprint() {
		t.Fatalf("baseline %d does not even account the resident graph (%d)", baseline, g.MemoryFootprint())
	}
	if stream*4 > baseline {
		t.Fatalf("stream path peak %d B exceeds 1/4 of the materialized baseline %d B", stream, baseline)
	}
}
