package dne

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// shuffleRuns runs shuffleShard with packed[r] as rank r's shard and returns
// every rank's received edges and error.
func shuffleRuns(t *testing.T, packed [][]uint64) ([][]uint64, []error) {
	t.Helper()
	p := len(packed)
	locals := make([][]uint64, p)
	errs := make([]error, p)
	err := cluster.New(p).Run(func(comm cluster.Comm) error {
		r := comm.Rank()
		locals[r], _, errs[r] = shuffleShard(comm, packed[r])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return locals, errs
}

// TestShuffleMergesRuns checks the merge on ascending shards that share some
// edges: every rank ends up with its grid cell's edges, ascending and each
// once.
func TestShuffleMergesRuns(t *testing.T) {
	const p = 4
	g := gen.RMAT(8, 8, 5)
	packed := make([][]uint64, p)
	for r, s := range hashShards(g, p) {
		packed[r] = s.Packed
	}
	locals, errs := shuffleRuns(t, packed)
	want := gridBuckets(g, newGrid(p), p)
	for r := range locals {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if !slices.Equal(locals[r], want[r]) {
			t.Fatalf("rank %d: received %d edges, want its %d grid edges ascending", r, len(locals[r]), len(want[r]))
		}
	}
}

// forgingComm rewrites every bucket its machine sends in the shuffle, as a
// peer that skipped its SortDedup or corrupted its buckets would send them.
type forgingComm struct {
	cluster.Comm
	forge func(run []uint64) []uint64
}

func (c forgingComm) Send(to int, tag cluster.Tag, body cluster.Body) {
	if run, ok := body.(cluster.Uint64SliceBody); ok && len(run) > 1 {
		body = cluster.Uint64SliceBody(c.forge(slices.Clone(run)))
	}
	c.Comm.Send(to, tag, body)
}

// TestShuffleRejectsForgedRuns has machine 2 send runs that no sorted,
// deduplicated shard could have produced. Their receivers must report an
// error naming the sender, not merge an unordered edge list or panic, and
// every other machine must fail in the same collective instead of waiting
// on them.
func TestShuffleRejectsForgedRuns(t *testing.T) {
	const p, forger = 4, 2
	g := gen.RMAT(8, 8, 5)
	for _, tc := range []struct {
		name  string
		forge func(run []uint64) []uint64
	}{
		{"descending run", func(run []uint64) []uint64 {
			slices.Reverse(run)
			return run
		}},
		// In place of its successor, so that the run keeps the length its
		// count announced: a run longer than its count is a framing error
		// that AllToAllU64 itself rejects.
		{"edge sent twice", func(run []uint64) []uint64 {
			run[1] = run[0]
			return run
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shards := graph.ShardsOf(g, p)
			errs := make([]error, p)
			err := cluster.New(p).Run(func(comm cluster.Comm) error {
				r := comm.Rank()
				if r == forger {
					comm = forgingComm{Comm: comm, forge: tc.forge}
				}
				_, _, errs[r] = shuffleInput(comm, shards[r])
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			named := 0
			for r, err := range errs {
				switch {
				case err == nil:
					t.Errorf("rank %d accepted the forged runs", r)
				case strings.Contains(err.Error(), "machine 2 sent keys out of order"):
					named++
				case !strings.Contains(err.Error(), "unordered shuffle run"):
					t.Errorf("rank %d: err = %v, want the forged run named or reported", r, err)
				}
			}
			if named == 0 {
				t.Error("no receiver named machine 2's run")
			}
		})
	}
}

// TestPartitionShardsSortsRawShards hands PartitionShards shards in stream
// order with duplicates inside a shard: the senders' SortDedup must make
// them the runs the merge needs, and the owners must be those of the
// canonical stripes.
func TestPartitionShardsSortsRawShards(t *testing.T) {
	const p = 4
	g := gen.RMAT(10, 8, 7)
	cfg := DefaultConfig()
	cfg.Seed = 11
	want, _ := runShardCluster(t, graph.ShardsOf(g, p), cfg)
	rng := rand.New(rand.NewSource(4))
	raw := hashShards(g, p)
	for _, s := range raw {
		s.Packed = append(s.Packed, s.Packed[:len(s.Packed)/10]...)
		rng.Shuffle(len(s.Packed), func(i, j int) { s.Packed[i], s.Packed[j] = s.Packed[j], s.Packed[i] })
	}
	got, _ := runShardCluster(t, raw, cfg)
	if !slices.Equal(got.Keys, want.Keys) || !slices.Equal(got.Owner, want.Owner) {
		t.Fatalf("raw shards: %d edges with checksum %#x, want %d with %#x",
			got.NumEdges(), got.Checksum(), want.NumEdges(), partition.Checksum(want.Owner))
	}
}
