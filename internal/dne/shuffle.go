package dne

import (
	"fmt"
	"slices"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/dsa"
)

// shuffleShard is the distributed ingest of the sharded data plane: every
// rank holds an arbitrary slice of the raw edge stream (a shard) and must
// end up holding exactly its 2D-grid share of the deduplicated graph. Each
// rank routes its local packed edges to their grid owners, exchanges the
// buckets with one chunked AllToAll, then merges what it received.
// Duplicate edges land on the same owner (ownership is a pure function of
// the endpoints), so local deduplication is global deduplication — and
// ascending packed order is ascending canonical order.
//
// packed must be strictly ascending (graph.Shard.SortDedup), so every bucket
// is a strictly ascending run and the receiver merges the P runs
// (dsa.MergeU64) instead of sorting their concatenation. A received run that
// is not strictly ascending would merge into an unordered edge list; it is
// an error instead. The exchange completes either way, so the caller can
// make the failure collective.
//
// Peak memory per rank is O(|shard| + |received|). The returned peakBytes
// is the analytic transient peak of the exchange's own buffers (routed
// copies, received runs, merged slice), which are co-resident at the merge;
// the merge's bucket index, one word per sixteen keys, is left out. The
// shard itself is charged by the caller, which owns it.
func shuffleShard(comm cluster.Comm, packed []uint64) (local []uint64, peakBytes int64, err error) {
	p := comm.Size()
	h := newCellHash(p)
	// Counting pass, then fill: two passes over the shard instead of P
	// growing buffers.
	kr := newKeyRouter(&h)
	counts := make([]int, p)
	for _, k := range packed {
		counts[kr.owner(k)]++
	}
	out := make([][]uint64, p)
	for q := 0; q < p; q++ {
		out[q] = make([]uint64, 0, counts[q])
	}
	for _, k := range packed {
		q := kr.owner(k)
		out[q] = append(out[q], k)
	}
	// The last read of packed: from here the caller's shard can go.
	peakBytes = 8 * int64(len(packed))
	in := cluster.AllToAllU64(comm, out)
	total := 0
	for from, run := range in {
		total += len(run)
		if err == nil {
			err = checkAscending(from, run)
		}
	}
	peakBytes += 8 * int64(total+total)
	if err != nil {
		return nil, peakBytes, err
	}
	merged, _ := dsa.MergeU64[struct{}](in, nil)
	return slices.Compact(merged), peakBytes, nil
}

// checkAscending returns an error when run, received from machine from, is
// not strictly ascending: dsa.MergeU64 would merge it into an unordered
// result.
func checkAscending(from int, run []uint64) error {
	for i := 1; i < len(run); i++ {
		if run[i] <= run[i-1] {
			return fmt.Errorf("dne: machine %d sent keys out of order at %d", from, i)
		}
	}
	return nil
}
