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
	for _, scale := range []int{1, 17, 1<<14 + 11} {
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

// smallBodies caps a Comm's MaxBody, so that the in-process cluster chunks
// like a transport with small frames.
type smallBodies struct {
	Comm
	max int
}

func (s smallBodies) MaxBody() int { return s.max }

// TestAllToAllU64ChunksLargeVectors: in process a vector is one message
// handed over by reference, however large; under a MaxBody of 100 words the
// same vector arrives intact in chunks of at most 100 words, each an
// accounted message.
func TestAllToAllU64ChunksLargeVectors(t *testing.T) {
	const size = 2
	n := 3*100 + 5
	outs := make([][][]uint64, size)
	for r := range outs {
		outs[r] = make([][]uint64, size)
		for q := range outs[r] {
			outs[r][q] = make([]uint64, n)
			for i := range outs[r][q] {
				outs[r][q][i] = uint64(r*1_000_000 + i)
			}
		}
	}
	for _, maxBody := range []int{0, 8 * 100} {
		c := New(size)
		err := c.Run(func(comm Comm) error {
			if maxBody > 0 {
				comm = smallBodies{Comm: comm, max: maxBody}
			}
			in := AllToAllU64(comm, outs[comm.Rank()])
			for r := range in {
				if !slices.Equal(in[r], outs[r][comm.Rank()]) {
					t.Errorf("MaxBody %d rank %d: the vector from %d did not arrive intact", maxBody, comm.Rank(), r)
				}
				// In process a vector that came as one message is the
				// sender's own; this machine's own one never moves.
				if byRef := maxBody == 0 || r == comm.Rank(); byRef && &in[r][0] != &outs[r][comm.Rank()][0] {
					t.Errorf("MaxBody %d rank %d: the vector from %d was copied", maxBody, comm.Rank(), r)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Each rank sends its count and the data chunks to the other rank
		// (self traffic is free).
		chunks := int64(1)
		if maxBody > 0 {
			chunks = 4
		}
		msgs, bytes := totals(c)
		if want := 2 * (1 + chunks); msgs != want {
			t.Errorf("MaxBody %d: messages sent = %d, want %d", maxBody, msgs, want)
		}
		if want := 2 * (8 + int64(n)*8 + (1+chunks)*headerBytes); bytes != want {
			t.Errorf("MaxBody %d: bytes sent = %d, want %d", maxBody, bytes, want)
		}
	}
}

// TestGatherKeyedChunks gathers keyed runs at machine 0 in one message per
// run and in chunks of 10 records: both give every run back paired, in
// process by reference when it came in one message, and nothing elsewhere.
func TestGatherKeyedChunks(t *testing.T) {
	const size = 4
	runs := make([][]uint64, size)
	vals := make([][]int32, size)
	for r := range runs {
		runs[r] = vectorFor(r, 0, 13) // from 0 to 52 records
		for i := range runs[r] {
			vals[r] = append(vals[r], int32(r*1000+i))
		}
	}
	for _, maxBody := range []int{0, 12 * 10} {
		err := New(size).Run(func(comm Comm) error {
			if maxBody > 0 {
				comm = smallBodies{Comm: comm, max: maxBody}
			}
			gotK, gotV := GatherKeyed(comm, runs[comm.Rank()], vals[comm.Rank()])
			if comm.Rank() != 0 {
				if gotK != nil || gotV != nil {
					t.Errorf("rank %d got runs", comm.Rank())
				}
				return nil
			}
			for r := range runs {
				if !slices.Equal(gotK[r], runs[r]) || !slices.Equal(gotV[r], vals[r]) {
					t.Errorf("MaxBody %d: run of %d: %d keys and %d values, want %d", maxBody, r, len(gotK[r]), len(gotV[r]), len(runs[r]))
				}
				if len(gotK[r]) != len(runs[r]) {
					continue
				}
				oneMessage := maxBody == 0 || len(runs[r]) <= 10 || r == 0
				if len(runs[r]) > 0 && oneMessage && (&gotK[r][0] != &runs[r][0] || &gotV[r][0] != &vals[r][0]) {
					t.Errorf("MaxBody %d: run of %d was copied", maxBody, r)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
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
