package cluster

import "fmt"

// Large-payload collectives. The edge shuffle of the sharded data plane
// moves O(|E|/P) packed edges per rank per exchange — far beyond the scalar
// vectors the core collectives carry — so these stream their bodies in
// bounded chunks. Like every collective here they are built from
// point-to-point messages (bytes and message counts are accounted by Send)
// and behave identically on the in-process and TCP transports. All
// machines must call the same collective in the same order.

// Uint64SliceBody carries a vector of packed uint64 words (edge keys,
// offsets). It is the payload type of the chunked collectives.
type Uint64SliceBody []uint64

// WireSize implements Body.
func (b Uint64SliceBody) WireSize() int { return 8 * len(b) }

// maxCollChunkWords bounds one data message of a chunked collective
// (256 KiB of payload): large exchanges stream in bounded frames instead of
// materializing one message per destination, so per-message buffers stay
// flat no matter how large the exchange is.
const maxCollChunkWords = 1 << 15

// collChunks returns how many data messages a vector of n words travels in.
func collChunks(n int64) int {
	c := n / maxCollChunkWords
	if n%maxCollChunkWords != 0 {
		c++
	}
	return int(c)
}

// AllToAllU64 performs a personalized exchange of uint64 vectors: out[q] is
// this machine's vector for machine q; the result's element [q] is the
// vector machine q sent here. out must have length Size(). Counts are
// exchanged first, then each vector streams in chunks of at most
// maxCollChunkWords; per-sender FIFO order plus the (From, Seq) sort in
// RecvN reassembles every vector exactly as sent. The returned slices are
// freshly allocated, each at the size that arrived; out is not retained.
//
// A count is a peer's word and is checked like any frame: a negative one,
// or one its sender's data does not match, panics *ConnLostError. No memory
// is sized by a count before its data has arrived. A count that needs more
// chunks than its sender sends leaves the receiver waiting, as for any
// missing message, until the transport fails.
func AllToAllU64(c Comm, out [][]uint64) [][]uint64 {
	size := c.Size()
	if len(out) != size {
		panic(fmt.Sprintf("cluster: AllToAllU64 out length %d must equal Size() %d", len(out), size))
	}
	rank := c.Rank()
	// The self-destined vector is copied locally: even transports that make
	// self-sends free still pay serialization for them, and a real
	// all-to-all never puts a rank's own data on the wire.
	for q := 0; q < size; q++ {
		if q != rank {
			c.Send(q, tagCollCount, Int64Body(len(out[q])))
		}
	}
	counts := make([]int64, size)
	counts[rank] = int64(len(out[rank]))
	for _, m := range c.RecvN(tagCollCount, size-1) {
		n, ok := m.Body.(Int64Body)
		if !ok || n < 0 {
			panic(&ConnLostError{Tag: tagCollCount, Err: fmt.Errorf("machine %d announced a vector of %v words", m.From, m.Body)})
		}
		counts[m.From] = int64(n)
	}
	for q := 0; q < size; q++ {
		if q == rank {
			continue
		}
		for v := out[q]; len(v) > 0; {
			n := len(v)
			if n > maxCollChunkWords {
				n = maxCollChunkWords
			}
			c.Send(q, tagCollData, Uint64SliceBody(v[:n]))
			v = v[n:]
		}
	}
	totalMsgs := 0
	for q := 0; q < size; q++ {
		if q != rank {
			totalMsgs += collChunks(counts[q])
		}
	}
	msgs := c.RecvN(tagCollData, totalMsgs)
	got := make([]int64, size)
	got[rank] = counts[rank]
	for _, m := range msgs {
		body, ok := m.Body.(Uint64SliceBody)
		if !ok {
			panic(&ConnLostError{Tag: tagCollData, Err: fmt.Errorf("machine %d sent a %T for a vector chunk", m.From, m.Body)})
		}
		got[m.From] += int64(len(body))
	}
	in := make([][]uint64, size)
	for q := range in {
		if got[q] != counts[q] {
			panic(&ConnLostError{Tag: tagCollData, Err: fmt.Errorf("machine %d sent %d words, announced %d", q, got[q], counts[q])})
		}
		in[q] = make([]uint64, 0, got[q])
	}
	in[rank] = append(in[rank], out[rank]...)
	for _, m := range msgs {
		in[m.From] = append(in[m.From], m.Body.(Uint64SliceBody)...)
	}
	return in
}
