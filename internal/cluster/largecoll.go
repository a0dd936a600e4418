package cluster

import (
	"fmt"
	"math"
)

// Large-payload collectives. The edge shuffle of the sharded data plane
// moves O(|E|/P) packed edges per rank per exchange, and the result
// collection O(|E|/P) (edge, owner) pairs per rank — far beyond the scalar
// vectors the core collectives carry. Both run on one chunked exchange:
// counts first, then each run in bodies of at most Comm.MaxBody bytes, so a
// TCP frame of bulk data always fits its reader's first buffer, while in
// process a run is one message handed over by reference. Like every
// collective here they are built from point-to-point messages (bytes and
// message counts are accounted by Send). All machines must call the same
// collective in the same order.

// Uint64SliceBody carries a vector of packed uint64 words (edge keys,
// offsets). It is the chunk body of AllToAllU64.
type Uint64SliceBody []uint64

// WireSize implements Body.
func (b Uint64SliceBody) WireSize() int { return 8 * len(b) }

// KeyedBody carries keys with one 32-bit value each: (packed edge, owner)
// pairs. It is the chunk body of GatherKeyed.
type KeyedBody struct {
	Keys []uint64
	Vals []int32
}

// WireSize implements Body: the keys (u64 each), then the values (i32 each).
func (b KeyedBody) WireSize() int { return 8*len(b.Keys) + 4*len(b.Vals) }

// AllToAllU64 performs a personalized exchange of uint64 vectors: out[q] is
// this machine's vector for machine q; the result's element [q] is the
// vector machine q sent here. out must have length Size(). The result
// shares memory with out's own vector and, in process, with the senders'
// vectors: callers read it and do not write it.
//
// A count is a peer's word and is checked like any frame: a negative one,
// or one its sender's data does not match, panics *ConnLostError. No memory
// is sized by a count before its data has arrived. A count that needs more
// chunks than its sender sends leaves the receiver waiting, as for any
// missing message, until the transport fails.
func AllToAllU64(c Comm, out [][]uint64) [][]uint64 {
	if len(out) != c.Size() {
		panic(fmt.Sprintf("cluster: AllToAllU64 out length %d must equal Size() %d", len(out), c.Size()))
	}
	in, _ := exchange(c, out, nil, func(int, int) bool { return true })
	return in
}

// GatherKeyed collects every machine's run of keys and their values at
// machine 0: there, element [q] of the results is what machine q sent (its
// own run by reference); elsewhere both are nil. A run that arrives in one
// chunk is the body as it arrived, so in process the gather copies nothing;
// the caller checks that each run's values pair with its keys. Counts are
// checked as in AllToAllU64.
func GatherKeyed(c Comm, keys []uint64, vals []int32) ([][]uint64, [][]int32) {
	// Every machine's one run is for machine 0: it goes in as keys[0].
	return exchange(c, [][]uint64{keys}, [][]int32{vals}, func(_, to int) bool { return to == 0 })
}

// exchange is the chunked collective: machine r sends keys[q] (and vals[q],
// when vals is not nil) to every other machine q with sends(r, q), and
// returns what each machine q with sends(q, r) sent here. Only those
// elements of keys and vals are read; when sends(r, r), the result holds
// keys[r] and vals[r] by reference, and a machine that receives nothing
// gets nils. Each run goes as its count under tagCollCount, then its chunks
// of at most MaxBody bytes under tagCollData; the (From, Seq) sort in RecvN
// puts every sender's chunks back in order.
func exchange(c Comm, keys [][]uint64, vals [][]int32, sends func(from, to int) bool) ([][]uint64, [][]int32) {
	size, rank := c.Size(), c.Rank()
	keyed := vals != nil
	recBytes := 8
	if keyed {
		recBytes = 12
	}
	per := max(1, c.MaxBody()/recBytes) // records per chunk
	for q := 0; q < size; q++ {
		if q == rank || !sends(rank, q) {
			continue
		}
		n := len(keys[q])
		c.Send(q, tagCollCount, Int64Body(n))
		if keyed && n > per && len(vals[q]) != n {
			panic(fmt.Sprintf("cluster: keyed run with %d keys and %d values", n, len(vals[q])))
		}
		for i := 0; i < n; i += per {
			j := min(n, i+per)
			switch {
			case !keyed:
				c.Send(q, tagCollData, Uint64SliceBody(keys[q][i:j]))
			case n <= per:
				c.Send(q, tagCollData, KeyedBody{Keys: keys[q], Vals: vals[q]})
			default:
				c.Send(q, tagCollData, KeyedBody{Keys: keys[q][i:j], Vals: vals[q][i:j]})
			}
		}
	}
	senders := 0
	for q := 0; q < size; q++ {
		if q != rank && sends(q, rank) {
			senders++
		}
	}
	self := sends(rank, rank)
	if senders == 0 && !self {
		return nil, nil
	}
	inK := make([][]uint64, size)
	var inV [][]int32
	if keyed {
		inV = make([][]int32, size)
	}
	if self {
		inK[rank] = keys[rank]
		if keyed {
			inV[rank] = vals[rank]
		}
	}
	if senders == 0 {
		return inK, inV
	}
	// counts[q] is what machine q announced, less what has arrived.
	counts := make([]int64, size)
	chunks := 0
	for _, m := range c.RecvN(tagCollCount, senders) {
		n, ok := m.Body.(Int64Body)
		if !ok || n < 0 || !sends(m.From, rank) {
			panic(&ConnLostError{Tag: tagCollCount, Err: fmt.Errorf("machine %d announced a run of %v records", m.From, m.Body)})
		}
		counts[m.From] = int64(n)
		// Saturates instead of overflowing: a total no sender can meet
		// waits, like any forged count, until the transport fails.
		k := chunksOf(int64(n), per)
		chunks = min(chunks, math.MaxInt-k) + k
	}
	if chunks == 0 {
		return inK, inV
	}
	msgs := c.RecvN(tagCollData, chunks)
	for _, m := range msgs {
		n, ok := chunkLen(m.Body, keyed)
		if !ok {
			panic(&ConnLostError{Tag: tagCollData, Err: fmt.Errorf("machine %d sent a %T for a run chunk", m.From, m.Body)})
		}
		counts[m.From] -= int64(n)
	}
	for q, left := range counts {
		if left != 0 {
			panic(&ConnLostError{Tag: tagCollData, Err: fmt.Errorf("machine %d's chunks differ from its count by %+d records", q, -left)})
		}
	}
	// Chunks are sorted by sender, each sender's in the order they were
	// sent. A run of one chunk is used as it arrived; a longer one is
	// joined at the size its data has already proven.
	for i := 0; i < len(msgs); {
		from, j := msgs[i].From, i+1
		for j < len(msgs) && msgs[j].From == from {
			j++
		}
		if !keyed {
			inK[from] = joinChunks(msgs[i:j], func(b Body) []uint64 { return b.(Uint64SliceBody) })
		} else {
			inK[from] = joinChunks(msgs[i:j], func(b Body) []uint64 { return b.(KeyedBody).Keys })
			inV[from] = joinChunks(msgs[i:j], func(b Body) []int32 { return b.(KeyedBody).Vals })
		}
		i = j
	}
	return inK, inV
}

// chunksOf returns how many chunks of per records a run of n records
// travels in.
func chunksOf(n int64, per int) int {
	c := n / int64(per)
	if n%int64(per) != 0 {
		c++
	}
	return int(min(c, math.MaxInt))
}

// chunkLen returns the records a chunk body carries, and whether it is the
// body kind the collective sends.
func chunkLen(b Body, keyed bool) (int, bool) {
	switch b := b.(type) {
	case Uint64SliceBody:
		return len(b), !keyed
	case KeyedBody:
		return len(b.Keys), keyed
	}
	return 0, false
}

// joinChunks returns the concatenation of the field part selects from each
// chunk: the chunk's own slice when there is one, else a fresh slice of the
// size that arrived.
func joinChunks[T any](chunks []Message, part func(Body) []T) []T {
	if len(chunks) == 1 {
		return part(chunks[0].Body)
	}
	n := 0
	for _, m := range chunks {
		n += len(part(m.Body))
	}
	run := make([]T, 0, n)
	for _, m := range chunks {
		run = append(run, part(m.Body)...)
	}
	return run
}
