package dnebench

import (
	"context"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
)

// TestPinnedFormatBytes pins the FNV-64a of the bytes each fixed-layout
// writer emits for a seeded input: the compacted base of partition 0 of a
// live graph seeded from a DNE partitioning of RMAT 10 and churned, and
// DNB1/DNC1 of one checkpointed in-memory DNE run. A change to how the
// formats are encoded must leave every file byte-identical. The bases
// live.Create writes are pinned by TestPinnedSnapshotDigest in
// internal/live.
func TestPinnedFormatBytes(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	const parts = 4
	cfg := dne.DefaultConfig()
	cfg.Seed = 3
	res, err := dne.PartitionCtx(context.Background(), g, parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	check := func(name string, b []byte, want uint64) {
		t.Helper()
		if got := digest(b); got != want {
			t.Errorf("%s FNV-64a = %#x, want %#x (%d bytes)", name, got, want, len(b))
		}
	}
	readFile := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	liveDir := t.TempDir()
	lv, err := live.Create(liveDir, live.Config{Seed: 3}, g, res.Partitioning)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lv.Apply(dynpart.Churn(gen.RMAT(11, 8, 4), 20_000, 0.1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := lv.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
	base := readFile(filepath.Join(liveDir, graph.CompressedShardFileName(0, parts)))
	check("compacted base", base, 0x4399347fafd275aa)

	dirs := make([]string, parts)
	cl := cluster.New(parts)
	shards := graph.ShardsOf(g, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for rank := range dirs {
		dirs[rank] = t.TempDir()
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ckpt, err := dne.NewCheckpointer(dirs[rank], rank, parts, 1, cfg)
			if err != nil {
				errs[rank] = err
				return
			}
			_, _, errs[rank] = dne.PartitionShardsFT(context.Background(), cfg, dne.FTOptions{
				Checkpoint: ckpt,
				Connect:    func(context.Context) (cluster.Comm, error) { return cl.Node(rank), nil },
				LoadShard:  func() (*graph.Shard, error) { return shards[rank], nil },
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	check("DNB1", readFile(filepath.Join(dirs[0], "base-r000.dnc")), 0xb84092460b4937b5)
	states, err := filepath.Glob(filepath.Join(dirs[0], "state-r000-s*.dnc"))
	if err != nil || len(states) == 0 {
		t.Fatalf("no rank-0 state checkpoint: %v", err)
	}
	check("DNC1 "+filepath.Base(states[len(states)-1]), readFile(states[len(states)-1]), 0xb0169148a1e245f3)
}
