package cluster

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
)

// vectorFor builds a deterministic test vector from sender r to receiver q,
// sized so some exchanges cross the chunk boundary and others are empty.
func vectorFor(r, q, scale int) []uint64 {
	n := (r*7 + q*3) % 5 * scale
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(r)<<40 | uint64(q)<<20 | uint64(i)
	}
	return v
}

func TestAllToAllU64InProcess(t *testing.T) {
	for _, scale := range []int{1, 17, maxCollChunkWords/2 + 11} {
		const size = 4
		c := New(size)
		err := c.Run(func(comm Comm) error {
			out := make([][]uint64, size)
			for q := 0; q < size; q++ {
				out[q] = vectorFor(comm.Rank(), q, scale)
			}
			in := AllToAllU64(comm, out)
			for r := 0; r < size; r++ {
				want := vectorFor(r, comm.Rank(), scale)
				if !slices.Equal(in[r], want) {
					t.Errorf("scale %d rank %d: from %d got %d words, want %d",
						scale, comm.Rank(), r, len(in[r]), len(want))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllToAllU64ChunksLargeVectors(t *testing.T) {
	// A vector much larger than one chunk must arrive intact, and the
	// traffic must be split into multiple accounted messages.
	const size = 2
	n := 3*maxCollChunkWords + 5
	c := New(size)
	err := c.Run(func(comm Comm) error {
		out := make([][]uint64, size)
		for q := 0; q < size; q++ {
			out[q] = make([]uint64, n)
			for i := range out[q] {
				out[q][i] = uint64(comm.Rank()*1_000_000 + i)
			}
		}
		in := AllToAllU64(comm, out)
		other := 1 - comm.Rank()
		if len(in[other]) != n {
			t.Errorf("rank %d: got %d words, want %d", comm.Rank(), len(in[other]), n)
			return nil
		}
		for i, v := range in[other] {
			if v != uint64(other*1_000_000+i) {
				t.Errorf("rank %d: word %d = %d", comm.Rank(), i, v)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each rank sends 1 count + 4 data chunks to the other rank (self
	// traffic is free): 10 remote messages total.
	msgs, bytes := totals(c)
	if msgs != 10 {
		t.Errorf("messages sent = %d, want 10 (chunking not applied?)", msgs)
	}
	if wantBytes := int64(2) * (8 + int64(n)*8 + 5*headerBytes); bytes != wantBytes {
		t.Errorf("bytes sent = %d, want %d", bytes, wantBytes)
	}
}

func TestAllToAllU64BackToBack(t *testing.T) {
	// Two exchanges in a row must not bleed into each other (count frames
	// and data frames travel under different tags).
	const size = 3
	c := New(size)
	err := c.Run(func(comm Comm) error {
		for round := 0; round < 3; round++ {
			out := make([][]uint64, size)
			for q := 0; q < size; q++ {
				out[q] = []uint64{uint64(round), uint64(comm.Rank()), uint64(q)}
			}
			in := AllToAllU64(comm, out)
			for r := 0; r < size; r++ {
				want := []uint64{uint64(round), uint64(r), uint64(comm.Rank())}
				if !slices.Equal(in[r], want) {
					t.Errorf("round %d rank %d from %d: got %v want %v",
						round, comm.Rank(), r, in[r], want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllU64SingleMachine(t *testing.T) {
	c := New(1)
	err := c.Run(func(comm Comm) error {
		in := AllToAllU64(comm, [][]uint64{{1, 2, 3}})
		if !slices.Equal(in[0], []uint64{1, 2, 3}) {
			t.Errorf("self exchange = %v", in[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, bytes := totals(c); bytes != 0 {
		t.Errorf("self exchange cost %d bytes, want 0", bytes)
	}
}

// forgedCount is a Comm that rewrites the count machine from announces to
// its owner in AllToAllU64, as a corrupt or hostile frame would.
type forgedCount struct {
	Comm
	from  int
	count int64
}

func (f *forgedCount) RecvN(tag Tag, k int) []Message {
	msgs := f.Comm.RecvN(tag, k)
	if tag == tagCollCount {
		for i := range msgs {
			if msgs[i].From == f.from {
				msgs[i].Body = Int64Body(f.count)
			}
		}
	}
	return msgs
}

// TestAllToAllU64RejectsForgedCounts: machine 0 sees machine 1 announce a
// negative count, counts of 2^40 and 2^63−1 words, and one word more than
// it sends.
// Each gives machine 0 a *ConnLostError: not a runtime panic, and not a
// reservation sized by the count. The true count, through the same wrapper,
// exchanges the vectors.
func TestAllToAllU64RejectsForgedCounts(t *testing.T) {
	const sent = 100 // words machine 1 sends machine 0: one chunk, not full
	for _, forged := range []int64{-1, 1 << 40, math.MaxInt64, sent + 1, sent} {
		c := New(2)
		panics := make([]any, 2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.Run(func(comm Comm) error {
			rank := comm.Rank()
			if rank == 0 {
				comm = &forgedCount{Comm: comm, from: 1, count: forged}
			}
			// A machine that leaves tears the mesh down, as the TCP router
			// does, so that a peer waiting on it stops.
			defer c.FailAll(errors.New("peer left"))
			defer func() { panics[rank] = recover() }()
			out := [][]uint64{make([]uint64, sent), make([]uint64, sent)}
			in := AllToAllU64(comm, out)
			if len(in[1-rank]) != sent {
				t.Errorf("count %d: machine %d received %d words, want %d", forged, rank, len(in[1-rank]), sent)
			}
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("count %d: the exchange allocated %d bytes", forged, alloc)
		}
		if forged == sent {
			if panics[0] != nil || panics[1] != nil {
				t.Errorf("true count: panics %v, %v", panics[0], panics[1])
			}
			continue
		}
		var lost *ConnLostError
		if e, ok := panics[0].(error); !ok || !errors.As(e, &lost) {
			t.Errorf("count %d: machine 0 panicked with %v, want a *ConnLostError", forged, panics[0])
		}
	}
}
