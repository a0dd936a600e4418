package dne

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// cellKeys returns, for each of p machines, the first n packed keys
// (u < v < 64) the grid assigns to it, ascending.
func cellKeys(p, n int) [][]uint64 {
	gd := newGrid(p)
	runs := make([][]uint64, p)
	for u := uint32(0); u < 64; u++ {
		for v := u + 1; v < 64; v++ {
			if r := gd.edgeOwner(u, v); len(runs[r]) < n {
				runs[r] = append(runs[r], uint64(u)<<32|uint64(v))
			}
		}
	}
	return runs
}

// cellOwners returns owner r for every key of runs[r].
func cellOwners(runs [][]uint64) [][]int32 {
	owners := make([][]int32, len(runs))
	for r, run := range runs {
		for range run {
			owners[r] = append(owners[r], int32(r))
		}
	}
	return owners
}

// gatherRuns sends (runs[r], owners[r]) from rank r as its (key, owner) run
// and returns rank 0's merged result and error. A result rank 0 rejects
// must fail every other rank too, and one it accepts none of them.
func gatherRuns(t *testing.T, runs [][]uint64, owners [][]int32) ([]uint64, []int32, error) {
	t.Helper()
	var keys []uint64
	var merged []int32
	errs := make([]error, len(runs))
	err := cluster.New(len(runs)).Run(func(comm cluster.Comm) error {
		r := comm.Rank()
		k, o, err := collectOwnersByKey(comm, &subGraph{keys: runs[r], owner: owners[r]})
		if r == 0 {
			keys, merged = k, o
		}
		errs[r] = err
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range errs[1:] {
		if (err == nil) != (errs[0] == nil) {
			t.Errorf("rank 0 ended with %v, rank %d with %v", errs[0], r+1, err)
		}
	}
	return keys, merged, errs[0]
}

// TestGatherMergesRuns checks the merge on well-formed runs: the keys come
// back ascending, each with the owner its run reported.
func TestGatherMergesRuns(t *testing.T) {
	const p = 4
	gd := newGrid(p)
	runs := cellKeys(p, 5)
	keys, owners, err := gatherRuns(t, runs, cellOwners(runs))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5*p || !slices.IsSorted(keys) {
		t.Fatalf("merged %d keys (sorted: %v), want %d ascending", len(keys), slices.IsSorted(keys), 5*p)
	}
	for i, k := range keys {
		if want := int32(gd.edgeOwner(uint32(k>>32), uint32(k))); owners[i] != want {
			t.Fatalf("key %#x: owner %d, want %d", k, owners[i], want)
		}
	}
}

// TestGatherRejectsForgedRuns feeds rank 0 runs no shuffle could have
// produced; each must come back as an error, not a merged result or a panic.
func TestGatherRejectsForgedRuns(t *testing.T) {
	const p = 4
	for _, tc := range []struct {
		name  string
		forge func(runs [][]uint64) (owners [][]int32)
		want  string
	}{
		{"key of another cell", func(runs [][]uint64) [][]int32 {
			runs[1] = append(runs[1], runs[2][4])
			runs[2] = runs[2][:4]
			slices.Sort(runs[1])
			return cellOwners(runs)
		}, "not at the head"},
		{"duplicate across runs", func(runs [][]uint64) [][]int32 {
			runs[3] = append(runs[3], runs[0][2])
			slices.Sort(runs[3])
			return cellOwners(runs)
		}, "not at the head"},
		{"descending run", func(runs [][]uint64) [][]int32 {
			slices.Reverse(runs[2])
			return cellOwners(runs)
		}, "out of order"},
		{"owner past P", func(runs [][]uint64) [][]int32 {
			owners := cellOwners(runs)
			owners[1][3] = 99
			return owners
		}, "owner 99"},
		{"negative owner", func(runs [][]uint64) [][]int32 {
			owners := cellOwners(runs)
			owners[3][0] = -1
			return owners
		}, "owner -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := cellKeys(p, 5)
			owners := tc.forge(runs)
			_, _, err := gatherRuns(t, runs, owners)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestGatherRejectsUnpairedOwners checks that a run whose owner list is not
// as long as its key list is refused.
func TestGatherRejectsUnpairedOwners(t *testing.T) {
	var gatherErr error
	err := cluster.New(2).Run(func(comm cluster.Comm) error {
		sg := &subGraph{keys: cellKeys(2, 3)[comm.Rank()], owner: []int32{0}}
		if _, _, err := collectOwnersByKey(comm, sg); comm.Rank() == 0 {
			gatherErr = err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gatherErr == nil || !strings.Contains(gatherErr.Error(), "owners") {
		t.Fatalf("err = %v, want a keys/owners mismatch", gatherErr)
	}
}

// BenchmarkCollectOwners times rank 0's assembly of the result alone, in
// process: RMAT 16 at edge factor 16, its edges split into one run per grid
// cell as the superstep loop leaves them, each with its real DNE owner.
func BenchmarkCollectOwners(b *testing.B) {
	g := gen.RMAT(16, 16, 42)
	cfg := DefaultConfig()
	cfg.Seed = 42
	for _, p := range []int{4, 16} {
		res, err := PartitionCtx(context.Background(), g, p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		gd := newGrid(p)
		runs := make([][]uint64, p)
		owners := make([][]int32, p)
		for i, e := range g.Edges() {
			r := gd.edgeOwner(e.U, e.V)
			runs[r] = append(runs[r], graph.PackEdge(e.U, e.V))
			owners[r] = append(owners[r], res.Partitioning.Owner[i])
		}
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := cluster.New(p).Run(func(comm cluster.Comm) error {
					r := comm.Rank()
					_, _, err := collectOwnersByKey(comm, &subGraph{keys: runs[r], owner: owners[r]})
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
