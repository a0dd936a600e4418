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
		if got := AllGatherMax(comm, r*10); got != 30 {
			t.Errorf("rank %d: AllGatherMax = %d, want 30", r, got)
		}
		if got := AllGatherMin(comm, r*10); got != 0 {
			t.Errorf("rank %d: AllGatherMin = %d, want 0", r, got)
		}
		vec := AllGather(comm, r*r)
		for q := 0; q < size; q++ {
			if vec[q] != int64(q*q) {
				t.Errorf("rank %d: AllGather[%d] = %d", r, q, vec[q])
			}
		}
		if got := AllGatherAnd(comm, true); !got {
			t.Errorf("rank %d: AllGatherAnd(all true) = false", r)
		}
		if got := AllGatherOr(comm, comm.Rank() == 2); !got {
			t.Errorf("rank %d: AllGatherOr(one true) = false", r)
		}
		mvec := make([]int64, size)
		mvec[comm.Rank()] = r + 1
		maxv := AllGatherMaxVec(comm, mvec)
		for q := 0; q < size; q++ {
			if maxv[q] != int64(q+1) {
				t.Errorf("rank %d: AllGatherMaxVec[%d] = %d", r, q, maxv[q])
			}
		}
		comm.Barrier()
		return nil
	})
}

func TestTCPBcastAndScan(t *testing.T) {
	const size = 4
	runTCP(t, size, func(comm Comm) error {
		// Bcast from a non-zero root: only the root's value survives.
		if got := Bcast(comm, 2, int64(100+comm.Rank())); got != 102 {
			t.Errorf("rank %d: Bcast = %d, want 102", comm.Rank(), got)
		}
		// Exclusive prefix sum of 2^rank: rank r gets 2^r - 1.
		if got := ExclusiveScanSum(comm, int64(1)<<comm.Rank()); got != int64(1)<<comm.Rank()-1 {
			t.Errorf("rank %d: ExclusiveScanSum = %d, want %d",
				comm.Rank(), got, int64(1)<<comm.Rank()-1)
		}
		comm.Barrier()
		return nil
	})
}

func TestTCPAllToAllInt64(t *testing.T) {
	const size = 3
	runTCP(t, size, func(comm Comm) error {
		out := make([][]int64, size)
		for q := 0; q < size; q++ {
			out[q] = []int64{int64(comm.Rank()), int64(q), int64(comm.Rank() * q)}
		}
		in := AllToAll(comm, out)
		for r := 0; r < size; r++ {
			want := []int64{int64(r), int64(comm.Rank()), int64(r * comm.Rank())}
			if !slices.Equal(in[r], want) {
				t.Errorf("rank %d from %d: got %v want %v", comm.Rank(), r, in[r], want)
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
	n := maxCollChunkWords + 1234
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

func TestTCPScattervU64(t *testing.T) {
	const size = 4
	n := maxCollChunkWords + 77
	runTCP(t, size, func(comm Comm) error {
		var parts [][]uint64
		if comm.Rank() == 0 {
			parts = make([][]uint64, size)
			for q := 0; q < size; q++ {
				parts[q] = make([]uint64, n)
				for i := range parts[q] {
					parts[q][i] = uint64(q)<<32 | uint64(i)
				}
			}
		}
		got := ScattervU64(comm, 0, parts)
		if len(got) != n {
			t.Errorf("rank %d: got %d words, want %d", comm.Rank(), len(got), n)
			return nil
		}
		for i, v := range got {
			if v != uint64(comm.Rank())<<32|uint64(i) {
				t.Errorf("rank %d: word %d = %#x", comm.Rank(), i, v)
				break
			}
		}
		comm.Barrier()
		return nil
	})
}
