package dne

import (
	"slices"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/dsa"
)

// shuffleShard is the distributed ingest of the sharded data plane: every
// rank holds an arbitrary slice of the raw edge stream (a shard) and must
// end up holding exactly its 2D-grid share of the deduplicated graph. Each
// rank routes its local packed edges to their grid owners, exchanges the
// buckets with one chunked AllToAll, then sorts and deduplicates what it
// received. Duplicate edges land on the same owner (ownership is a pure
// function of the endpoints), so local deduplication is global
// deduplication — and ascending packed order is ascending canonical order.
//
// Peak memory per rank is O(|shard| + |received|). The returned peakBytes
// is the analytic transient peak of the exchange's own buffers (routed
// copies, received buckets, merged slice) — the shard itself is charged by
// the caller, which owns it.
func shuffleShard(comm cluster.Comm, gd grid, packed []uint64) (local []uint64, peakBytes int64) {
	p := comm.Size()
	// Counting pass, then fill: two passes over the shard instead of P
	// growing buffers.
	counts := make([]int, p)
	for _, k := range packed {
		counts[gd.edgeOwner(uint32(k>>32), uint32(k))]++
	}
	out := make([][]uint64, p)
	for q := 0; q < p; q++ {
		out[q] = make([]uint64, 0, counts[q])
	}
	for _, k := range packed {
		q := gd.edgeOwner(uint32(k>>32), uint32(k))
		out[q] = append(out[q], k)
	}
	in := cluster.AllToAllU64(comm, out)
	total := 0
	for _, v := range in {
		total += len(v)
	}
	local = make([]uint64, 0, total)
	for _, v := range in {
		local = append(local, v...)
	}
	dsa.SortU64(local)
	local = slices.Compact(local)
	// Routed copies + received buckets + merged slice, co-resident at the
	// exchange's peak. The shard itself is the caller's to account (it owns
	// the slice and releases it after the shuffle).
	peakBytes = 8 * int64(len(packed)+total+total)
	return local, peakBytes
}
