package dne

import (
	"math/bits"

	"github.com/distributedne/dne/internal/graph"
)

// vertexTable maps the global ids of the vertices one machine touches to
// dense compact ids, so that no per-machine slab is sized by the global |V|:
// the machine's own vertices, and the remote vertices its partition's
// boundary reaches, are all it ever indexes.
//
// It is two flat arrays: ids, the global id of every compact id in the order
// they were added, and slots, an open-addressing array probed linearly from a
// Fibonacci hash of the global id and kept at most three-quarters full. A
// slot holds the global id in its high half and compact id + 1 in its low
// half (0 is an empty slot), so a probe reads one word, not a slot and then
// an id. No Go map is involved.
type vertexTable struct {
	ids   []graph.Vertex
	slots []uint64
	shift uint // 32 − log2(len(slots))
}

const minTableSlots = 16

// newVertexTable returns an empty table with room for n ids.
func newVertexTable(n int) *vertexTable {
	t := &vertexTable{ids: make([]graph.Vertex, 0, n)}
	t.rehash(max(minTableSlots, 1<<bits.Len(uint(4*n/3))))
	return t
}

// home is v's first probe position.
func (t *vertexTable) home(v graph.Vertex) uint32 {
	return (uint32(v) * 0x9e3779b9) >> t.shift
}

// find returns v's compact id, or -1 when v is not in the table.
func (t *vertexTable) find(v graph.Vertex) int32 {
	mask := uint32(len(t.slots) - 1)
	for i := t.home(v); ; i = (i + 1) & mask {
		w := t.slots[i]
		if w == 0 {
			return -1
		}
		if graph.Vertex(w>>32) == v {
			return int32(uint32(w)) - 1
		}
	}
}

// insert returns v's compact id, appending v as the next compact id when it
// is not in the table yet.
func (t *vertexTable) insert(v graph.Vertex) int32 {
	mask := uint32(len(t.slots) - 1)
	i := t.home(v)
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if w := t.slots[i]; graph.Vertex(w>>32) == v {
			return int32(uint32(w)) - 1
		}
	}
	c := int32(len(t.ids))
	t.ids = append(t.ids, v)
	t.slots[i] = slotWord(v, c)
	if 4*len(t.ids) > 3*len(t.slots) {
		t.rehash(2 * len(t.slots))
	}
	return c
}

// sort renumbers the table so that compact ids ascend with global ids, and
// rewrites refs, compact ids from before, to the new ones: the subgraph
// build adds its vertices in edge order and then wants them sorted. The
// slots, rebuilt at the end, lend the sort its second buffer.
func (t *vertexTable) sort(refs []int32) {
	n := len(t.ids)
	words := make([]uint64, n)
	for c, v := range t.ids {
		words[c] = uint64(v)<<32 | uint64(c)
	}
	sorted, spare := sortByHigh(words, t.slots[:n])
	renum := spare
	for c, w := range sorted {
		t.ids[c] = graph.Vertex(w >> 32)
		renum[uint32(w)] = uint64(c)
	}
	for i, c := range refs {
		refs[i] = int32(renum[c])
	}
	t.rehash(len(t.slots))
}

// sortByHigh sorts words ascending by their high halves, using spare (as
// long as words) as the second buffer, and returns the buffer that holds
// the result and the other one. It is a least-significant digit radix sort
// over the four bytes of the high half, whose histograms are counted in one
// pass, skipping a byte that every word shares. Its 256-entry histograms
// suit a table of thousands of ids, where dsa.SortU64's 2^16-entry histogram
// would cost more to clear than the sort, and pdqsort a dozen compares per
// id.
func sortByHigh(words, spare []uint64) (sorted, other []uint64) {
	if len(words) < 2 {
		return words, spare
	}
	var hist [4][256]int
	for _, w := range words {
		for d := range hist {
			hist[d][byte(w>>(32+8*d))]++
		}
	}
	src, dst := words, spare
	for d := range hist {
		h := &hist[d]
		shift := 32 + 8*uint(d)
		if h[byte(src[0]>>shift)] == len(src) {
			continue
		}
		sum := 0
		for b, n := range h {
			h[b], sum = sum, sum+n
		}
		for _, w := range src {
			b := byte(w >> shift)
			dst[h[b]] = w
			h[b]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// rehash rebuilds slots at n entries, a power of two, from ids.
func (t *vertexTable) rehash(n int) {
	if n == len(t.slots) {
		clear(t.slots)
	} else {
		t.slots = make([]uint64, n)
	}
	t.shift = uint(32 - bits.TrailingZeros(uint(n)))
	mask := uint32(n - 1)
	for c, v := range t.ids {
		i := t.home(v)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = slotWord(v, int32(c))
	}
}

// slotWord is the slot of global id v at compact id c.
func slotWord(v graph.Vertex, c int32) uint64 {
	return uint64(v)<<32 | uint64(c+1)
}

// memoryFootprint returns the bytes held by the two arrays.
func (t *vertexTable) memoryFootprint() int64 {
	return int64(cap(t.ids))*4 + int64(len(t.slots))*8
}
