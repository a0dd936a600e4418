package store

import (
	"path/filepath"

	"github.com/distributedne/dne/internal/graph"
)

// A persisted store is a shard directory: one ESZ1 file per shard, whose
// header gives |V| = NumVertices, Index = shard and Count = NumShards, and
// whose keys are the shard's sorted canonical edges. Only the edges are
// stored; ReadDir rebuilds the CSR and the replica index through
// BuildFromShards, so a restored store is the built one, bit for bit.
// It is the layout of a live directory with no tails (see internal/live):
// live.Open adopts a store directory, and ReadDir opens a live directory
// that was compacted and closed.

// WriteDir writes st's shards into dir, which must exist, each through the
// durable graph.WriteCompressedShard, and shard 0 last: a directory holding
// it is whole.
func WriteDir(dir string, st *Store) error {
	n := len(st.shards)
	for s := n - 1; s >= 0; s-- {
		info := graph.ShardInfo{NumVertices: st.numVertices, Index: uint32(s), Count: uint32(n)}
		path := filepath.Join(dir, graph.CompressedShardFileName(s, n))
		if err := graph.WriteCompressedShard(path, info, st.shards[s].packed()); err != nil {
			return err
		}
	}
	return nil
}

// ReadDir restores a store WriteDir wrote. A damaged or hostile directory
// fails graph.ReadShards' validation or BuildFromShards' checks.
func ReadDir(dir string) (*Store, error) {
	n, parts, err := graph.ReadShards(dir)
	if err != nil {
		return nil, err
	}
	return BuildFromShards(n, parts)
}

// packed returns the shard's edges as ascending canonical keys: the u < w
// half of its adjacency, in slot order.
func (s *shard) packed() []uint64 {
	keys := make([]uint64, 0, s.edges)
	for l, u := range s.verts {
		for _, w := range s.neighborsOf(uint32(l)) {
			if u < w {
				keys = append(keys, graph.PackEdge(u, w))
			}
		}
	}
	return keys
}
