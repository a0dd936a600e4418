package cluster

import (
	"slices"
	"testing"
)

// The collectives are exercised over the TCP transport, not just the
// in-process cluster: every rank is a goroutine holding a real TCPNode
// through the loopback router, so the body codecs, framing, write
// coalescing and the router's forwarding order are all on the hook.

func TestTCPAllGatherFamily(t *testing.T) {
	const size = 4
	runTCP(t, size, func(comm Comm) error {
		r := int64(comm.Rank())
		if got := AllGatherSum(comm, r+1); got != 10 {
			t.Errorf("rank %d: AllGatherSum = %d, want 10", r, got)
		}
		if got := AllGatherMin(comm, r*10); got != 0 {
			t.Errorf("rank %d: AllGatherMin = %d, want 0", r, got)
		}
		vec := make([]int64, size)
		vec[comm.Rank()] = r + 1
		sum := AllGatherSumVec(comm, vec)
		for q := 0; q < size; q++ {
			if sum[q] != int64(q+1) {
				t.Errorf("rank %d: AllGatherSumVec[%d] = %d", r, q, sum[q])
			}
		}
		comm.Barrier()
		return nil
	})
}

func TestTCPAllToAllU64Chunked(t *testing.T) {
	// The chunked exchange over TCP: vectors beyond one chunk, plus empty
	// vectors, must reassemble exactly on every rank.
	const size = 3
	n := len(fullChunk()) + 1234
	runTCP(t, size, func(comm Comm) error {
		out := make([][]uint64, size)
		for q := 0; q < size; q++ {
			if q == (comm.Rank()+1)%size {
				continue // leave one destination empty
			}
			out[q] = make([]uint64, n)
			for i := range out[q] {
				out[q][i] = uint64(comm.Rank())<<48 | uint64(i)
			}
		}
		in := AllToAllU64(comm, out)
		for r := 0; r < size; r++ {
			if comm.Rank() == (r+1)%size {
				if len(in[r]) != 0 {
					t.Errorf("rank %d: expected empty vector from %d, got %d words",
						comm.Rank(), r, len(in[r]))
				}
				continue
			}
			if len(in[r]) != n {
				t.Errorf("rank %d: from %d got %d words, want %d", comm.Rank(), r, len(in[r]), n)
				continue
			}
			for i, v := range in[r] {
				if v != uint64(r)<<48|uint64(i) {
					t.Errorf("rank %d: from %d word %d = %#x", comm.Rank(), r, i, v)
					break
				}
			}
		}
		comm.Barrier()
		return nil
	})
}

// TestTCPBulkFramesFitTheFirstBuffer runs 4 ranks through an 8 MiB
// AllToAllU64 and a keyed gather over the loopback router: every run
// arrives intact, and no frame reader, in the router or in a node, grows
// past its first buffer on the way.
func TestTCPBulkFramesFitTheFirstBuffer(t *testing.T) {
	const size = 4
	words := (8 << 20) / 8 / (size * (size - 1)) // per pair: 8 MiB in all, ~11 chunks a pair
	vector := func(from, to int) []uint64 {
		v := make([]uint64, words+from) // runs of unequal length
		for i := range v {
			v[i] = uint64(from)<<56 | uint64(to)<<48 | uint64(i)
		}
		return v
	}
	grows := frameBufGrows.Load()
	runTCP(t, size, func(comm Comm) error {
		r := comm.Rank()
		out := make([][]uint64, size)
		for q := range out {
			out[q] = vector(r, q)
		}
		in := AllToAllU64(comm, out)
		for q := range in {
			if !slices.Equal(in[q], vector(q, r)) {
				t.Errorf("rank %d: the vector from %d did not arrive intact (%d words)", r, q, len(in[q]))
			}
		}
		keys := vector(r, 0)[:words/2+r]
		vals := make([]int32, len(keys))
		for i := range vals {
			vals[i] = int32(r*7 + i)
		}
		gotK, gotV := GatherKeyed(comm, keys, vals)
		if r == 0 {
			for q := 0; q < size; q++ {
				wantK := vector(q, 0)[:words/2+q]
				if !slices.Equal(gotK[q], wantK) || len(gotV[q]) != len(wantK) || gotV[q][len(wantK)-1] != int32(q*7+len(wantK)-1) {
					t.Errorf("gather: the run of %d did not arrive intact (%d keys, %d values)", q, len(gotK[q]), len(gotV[q]))
				}
			}
		}
		comm.Barrier()
		return nil
	})
	if n := frameBufGrows.Load() - grows; n != 0 {
		t.Errorf("frame readers grew %d times", n)
	}
}
