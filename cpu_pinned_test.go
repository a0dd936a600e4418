package dnebench

import (
	"context"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/partition"
)

// TestPinnedAcrossCPUCounts pins a DNE run and the directory seeded from it
// at a size where the worker-split paths run: RMAT 16 at edge factor 16
// puts well over 2^16 keys into each rank's shuffle merge and rank 0's
// owner collect, above the smallest chunk the dsa sort and merge give a
// worker. It pins the owner checksum (α 1.1, λ 0.1, P = 4) and the FNV-64a
// of the bases live.Create writes, names and bytes in name order. CI runs
// it at -cpu 1,2,4, so a result that depends on GOMAXPROCS fails here.
func TestPinnedAcrossCPUCounts(t *testing.T) {
	g := gen.RMAT(16, 16, 42)
	cfg := dne.DefaultConfig()
	cfg.Seed = 42
	res, err := dne.PartitionCtx(context.Background(), g, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	if got, want := partition.Checksum(res.Partitioning.Owner), uint64(0xf7327f7e292832d7); got != want {
		t.Errorf("GOMAXPROCS=%d: owner checksum %#x, want %#x", procs, got, want)
	}
	dir := t.TempDir()
	lv, err := live.Create(dir, live.Config{}, g, res.Partitioning)
	if err != nil {
		t.Fatal(err)
	}
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(paths) != 4 {
		t.Fatalf("created directory holds %d files, want 4 bases: %v", len(paths), err)
	}
	h := fnv.New64a()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(p)))
		h.Write(b)
	}
	if got, want := h.Sum64(), uint64(0xd23bea8baa54815f); got != want {
		t.Errorf("GOMAXPROCS=%d: base files FNV-64a %#x, want %#x", procs, got, want)
	}
}
