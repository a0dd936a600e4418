package store

import (
	"slices"

	"github.com/distributedne/dne/internal/graph"
)

// The overlay is the live part of an epoch: the edge insertions and
// deletions since the base was built, held as a short list of immutable
// sorted runs, LSM-style. Epochs share runs, so publishing one copies no
// edge.
//
// A run is one flat ascending list of directed keys v<<32|w, both
// directions of every edge it names, and beside each key the shard the edge
// lives on, or dead. Any overlay entry for an edge shadows the edge's base
// copy on every shard, and the newest run's entry wins. So one entry says
// "deleted from its base shard and re-added on shard t", which is what a
// Rebalance move is, and readers take a vertex's range in each run with one
// binary search and merge it with the base adjacency, which is ascending too.

// dead is the owner of an entry that deletes its edge.
const dead = int32(-1)

// flip returns directed key v<<32|w as w<<32|v. Of an edge's two keys, the
// canonical one (u < w) is the smaller.
func flip(k uint64) uint64 { return k<<32 | k>>32 }

// run is one immutable sorted run of overlay entries.
type run struct {
	keys  []uint64 // directed keys v<<32|w, strictly ascending
	owner []int32  // per key: the shard holding the edge, or dead
}

// span returns v's entries in r, keys[lo:hi]: one binary search finds the
// first, and the range is walked to its end.
func (r *run) span(v graph.Vertex) (lo, hi int) {
	lo, _ = slices.BinarySearch(r.keys, uint64(v)<<32)
	hi = lo
	for hi < len(r.keys) && r.keys[hi]>>32 == uint64(v) {
		hi++
	}
	return lo, hi
}

// overlay is a Writer's runs, oldest first, and its mutation counts per
// shard; each Epoch taken from the writer holds a frozen copy. addN[s]
// counts the live edges of shard s that overlay insertions placed there,
// delN[s] the base edges of s the overlay shadows; a base edge moved off s,
// or deleted and re-inserted, counts in both.
type overlay struct {
	runs       []*run
	addN, delN []int64
}

// lookup returns the owner the newest run holding directed key k gives it,
// and whether any run holds k.
func (o *overlay) lookup(k uint64) (int32, bool) {
	for j := len(o.runs) - 1; j >= 0; j-- {
		if i, ok := slices.BinarySearch(o.runs[j].keys, k); ok {
			return o.runs[j].owner[i], true
		}
	}
	return dead, false
}

// mutations returns the insertion and deletion totals over the shards.
func (o *overlay) mutations() (added, deleted int64) {
	for s := range o.addN {
		added += o.addN[s]
		deleted += o.delN[s]
	}
	return added, deleted
}

// entry is one overlay entry of a vertex: neighbour w and the shard that
// holds the edge, or dead.
type entry struct {
	w     graph.Vertex
	owner int32
}

// entryScratch holds the two buffers entriesOf merges between.
type entryScratch struct{ a, b []entry }

// entriesOf returns v's overlay entries in ascending neighbour order, one
// per neighbour: the newest run's. The result lives in sc and is valid until
// sc's next use.
func (o *overlay) entriesOf(v graph.Vertex, sc *entryScratch) []entry {
	out := sc.a[:0]
	for j := len(o.runs) - 1; j >= 0; j-- {
		r := o.runs[j]
		lo, hi := r.span(v)
		if lo == hi {
			continue
		}
		if len(out) == 0 {
			for i := lo; i < hi; i++ {
				out = append(out, entry{graph.Vertex(r.keys[i]), r.owner[i]})
			}
			continue
		}
		// out holds the newer runs' entries, which win a tie.
		merged, a := sc.b[:0], 0
		for i := lo; i < hi; i++ {
			w := graph.Vertex(r.keys[i])
			for a < len(out) && out[a].w < w {
				merged = append(merged, out[a])
				a++
			}
			if a < len(out) && out[a].w == w {
				continue
			}
			merged = append(merged, entry{w, r.owner[i]})
		}
		merged = append(merged, out[a:]...)
		sc.b, out = out, merged
	}
	sc.a = out
	return out
}

// overlayShards appends to dst the shards where only the overlay holds v:
// those its live entries ents name that are not among v's base replicas.
// Each shard below 64 is looked up once.
func overlayShards(dst []int32, ents []entry, base []int32) []int32 {
	var seen uint64 // shards below 64 looked up already
	for _, en := range ents {
		q := en.owner
		switch {
		case q == dead:
			continue
		case q < 64:
			if seen&(1<<q) != 0 {
				continue
			}
			seen |= 1 << q
		case slices.Contains(dst, q):
			continue
		}
		if _, found := slices.BinarySearch(base, q); !found {
			dst = append(dst, q)
		}
	}
	return dst
}

// appendLive appends to out the base adjacency adj (ascending) minus every
// neighbour the overlay entries ents (ascending) shadow.
func appendLive(out, adj []graph.Vertex, ents []entry) []graph.Vertex {
	j := 0
	for _, w := range adj {
		for j < len(ents) && ents[j].w < w {
			j++
		}
		if j < len(ents) && ents[j].w == w {
			continue
		}
		out = append(out, w)
	}
	return out
}

// canonical returns the overlay's entries of canonical keys (u < w) as one
// run, the newest run's entry for each key: a merge of every run at once.
func (o *overlay) canonical() *run {
	n := 0
	for _, r := range o.runs {
		n += len(r.keys) / 2
	}
	flat := &run{keys: make([]uint64, 0, n), owner: make([]int32, 0, n)}
	pos := make([]int, len(o.runs)) // per run: the next entry to read
	for {
		best, key := -1, uint64(0)
		for j, r := range o.runs {
			p := pos[j]
			for p < len(r.keys) && r.keys[p] > flip(r.keys[p]) {
				p++
			}
			pos[j] = p
			// <= lets a newer run win a tie.
			if p < len(r.keys) && (best < 0 || r.keys[p] <= key) {
				best, key = j, r.keys[p]
			}
		}
		if best < 0 {
			return flat
		}
		flat.keys = append(flat.keys, key)
		flat.owner = append(flat.owner, o.runs[best].owner[pos[best]])
		for j, r := range o.runs {
			if pos[j] < len(r.keys) && r.keys[pos[j]] == key {
				pos[j]++
			}
		}
	}
}

// mergeRuns returns runs a and the newer b as one run, b's entry winning a
// key both hold, less the entries of b that drop rejects.
func mergeRuns(a, b *run, drop func(k uint64, q int32) bool) *run {
	n := len(a.keys) + len(b.keys)
	out := &run{keys: make([]uint64, 0, n), owner: make([]int32, 0, n)}
	i := 0
	for j, k := range b.keys {
		for ; i < len(a.keys) && a.keys[i] < k; i++ {
			out.keys = append(out.keys, a.keys[i])
			out.owner = append(out.owner, a.owner[i])
		}
		if i < len(a.keys) && a.keys[i] == k {
			i++
		}
		if !drop(k, b.owner[j]) {
			out.keys = append(out.keys, k)
			out.owner = append(out.owner, b.owner[j])
		}
	}
	out.keys = append(out.keys, a.keys[i:]...)
	out.owner = append(out.owner, a.owner[i:]...)
	return out
}

// Writer is the mutable side of the epoch layer: a live graph's writer
// records edge mutations into it and takes immutable epochs from it. It is
// not safe for concurrent use.
//
// The mutations since the last epoch sit in a pending table the writer
// reuses. Epoch sorts them into a new run, and the newest runs merge
// binary-counter style, while the newer is at least half the older, so the
// overlay keeps O(log(overlay/batch)) runs and an epoch costs O(batch · log)
// work on flat arrays. It copies no edge of an older run: those are shared
// with the epochs taken before.
type Writer struct {
	base    *Store
	ov      overlay          // each run shared with the epochs taken since it formed
	maxV    graph.Vertex     // highest vertex id an insertion named, +1
	pending map[uint64]int32 // canonical key → owner, for the keys mutated since the last epoch
}

// NewWriter returns a writer over base with an empty overlay.
func NewWriter(base *Store) *Writer {
	n := len(base.shards)
	return &Writer{
		base:    base,
		ov:      overlay{addN: make([]int64, n), delN: make([]int64, n)},
		pending: make(map[uint64]int32),
	}
}

// Owner returns the shard holding live edge (u,v), u < v, or −1 when the
// edge is absent. It reads the pending table, then the runs newest first,
// then the base.
func (w *Writer) Owner(u, v graph.Vertex) int32 {
	k := graph.PackEdge(u, v)
	if q, ok := w.pending[k]; ok {
		return q
	}
	if q, ok := w.ov.lookup(k); ok {
		return q
	}
	return w.base.owner(u, v)
}

// Add records the insertion on shard s of edge (u,v), u < v, which must be
// absent.
func (w *Writer) Add(s int, u, v graph.Vertex) {
	w.pending[graph.PackEdge(u, v)] = int32(s)
	w.ov.addN[s]++
	w.maxV = max(w.maxV, v+1)
}

// Remove records the deletion of live edge (u,v), u < v, from shard s. An
// edge the overlay placed retracts that insertion; any other is a base
// edge, which the overlay now shadows.
func (w *Writer) Remove(s int, u, v graph.Vertex) {
	k := graph.PackEdge(u, v)
	_, placed := w.pending[k]
	if !placed {
		_, placed = w.ov.lookup(k)
	}
	if placed {
		w.ov.addN[s]--
	} else {
		w.ov.delN[s]++
	}
	w.pending[k] = dead
}

// Mutations returns the overlay's insertion and deletion totals: the live
// edges its insertions placed, and the base edges it shadows.
func (w *Writer) Mutations() (added, deleted int64) { return w.ov.mutations() }

// Epoch seals the pending mutations into a run and returns the graph the
// writer holds as epoch number seq. The epoch shares its runs with the
// writer, which never changes one.
func (w *Writer) Epoch(seq uint64) *Epoch {
	w.seal()
	if len(w.ov.runs) == 0 {
		return newEpoch(w.base, nil, seq)
	}
	ep := newEpoch(w.base, &overlay{
		runs: slices.Clone(w.ov.runs),
		addN: slices.Clone(w.ov.addN),
		delN: slices.Clone(w.ov.delN),
	}, seq)
	ep.numVertices = max(ep.numVertices, uint32(w.maxV))
	return ep
}

// seal sorts the pending table into a new run and merges the newest runs
// while the newer is at least half the older. An overlay whose counts are
// all zero places no edge and shadows none, so its runs are dropped.
func (w *Writer) seal() {
	if len(w.pending) == 0 {
		return
	}
	r := &run{keys: make([]uint64, 0, 2*len(w.pending))}
	for k := range w.pending {
		r.keys = append(r.keys, k, flip(k))
	}
	slices.Sort(r.keys)
	r.owner = make([]int32, len(r.keys))
	for i, k := range r.keys {
		r.owner[i] = w.pending[min(k, flip(k))]
	}
	clear(w.pending)
	runs := append(w.ov.runs, r)
	for n := len(runs); n >= 2 && 2*len(runs[n-1].keys) >= len(runs[n-2].keys); n-- {
		drop := keepAll
		if n == 2 {
			drop = w.shadowsNothing
		}
		runs[n-2] = mergeRuns(runs[n-2], runs[n-1], drop)
		runs[n-1] = nil
		runs = runs[:n-1]
	}
	if a, d := w.ov.mutations(); a == 0 && d == 0 {
		clear(runs)
		runs = runs[:0]
	}
	w.ov.runs = runs
}

// keepAll is the drop rule of a merge that keeps every entry.
func keepAll(uint64, int32) bool { return false }

// shadowsNothing reports a deletion of an edge the base does not hold.
// Below every run, with no older entry left to override, such an entry
// changes nothing, and the merge that forms the oldest run drops it.
func (w *Writer) shadowsNothing(k uint64, q int32) bool {
	return q == dead && w.base.owner(graph.Vertex(k>>32), graph.Vertex(k)) == dead
}
