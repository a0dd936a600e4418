// Stream side of the v2 API: partitioners that consume a graph.Source — an
// edge stream — instead of a materialized *graph.Graph, in memory bounded by
// the dense per-vertex state plus stream buffers, never by a resident edge
// list. The in-memory entry point Partition(ctx, g, spec) of a StreamMethod
// is a thin adapter over the same core fed by graph.SourceOf(g), so for any
// source that replays the canonical edge list (SourceOf, canonical shard
// stripes) the two paths are bit-identical: same assignment, same quality
// numbers.
//
// Owner arrays are always indexed by raw stream position — canonical edge
// index for canonical sources — no matter the processing order: methods
// that need a randomized arrival order (the replica-greedy family) run over
// graph.Shuffled, whose chunks carry raw positions, exactly as the old
// in-memory cores indexed through their rng.Perm.
package partition

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/distributedne/dne/internal/bitset"
	"github.com/distributedne/dne/internal/graph"
)

// StreamPartitioner is implemented by methods that can partition straight
// from an edge stream. PartitionStream must behave exactly like Partition
// over the materialized stream when the source replays a canonical edge
// list.
type StreamPartitioner interface {
	Partitioner
	// PartitionStream computes a spec.NumParts-way partitioning of the
	// source's edge stream. Owner[i] is the owner of the i-th raw stream
	// edge.
	PartitionStream(ctx context.Context, src graph.Source, spec Spec) (*Result, error)
}

// StreamCore is the heart of a streaming partitioner under the registry: it
// consumes the source and adds its dense-state analytic accounting to st;
// the StreamMethod.PartitionStream wrapper supplies validation, timing,
// order decoration, quality measurement and the rest of the accounting.
type StreamCore func(ctx context.Context, src graph.Source, spec Spec, st *Stats) (*Partitioning, error)

// StreamMethod adapts a StreamCore into both Partitioner and
// StreamPartitioner: single-process streaming methods register themselves
// as a StreamMethod, and their graph entry point routes through
// graph.SourceOf so the two paths cannot drift apart.
type StreamMethod struct {
	// ID is the canonical registry name, recorded in Stats.Method.
	ID string
	// Label is the display name used in experiment tables.
	Label string
	Core  StreamCore
	// Shuffle runs the core over graph.Shuffled(src, spec.Seed): set by the
	// replica-greedy methods whose placement quality depends on a
	// randomized arrival order. Pure hash rules leave it unset and process
	// the raw order (their placement is order-independent).
	Shuffle bool
}

// Name implements Partitioner.
func (m StreamMethod) Name() string { return m.Label }

// Partition implements Partitioner as a thin adapter over the stream core:
// the graph becomes a canonical-order source, and the resident input is
// added to the accounted peak (that is the materialized-graph baseline the
// stream path is measured against).
func (m StreamMethod) Partition(ctx context.Context, g *graph.Graph, spec Spec) (*Result, error) {
	res, err := m.PartitionStream(ctx, graph.SourceOf(g), spec)
	if err != nil {
		return nil, err
	}
	res.Stats.PeakMemBytes += g.MemoryFootprint()
	return res, nil
}

// PartitionStream implements StreamPartitioner: it validates the spec,
// applies the method's order decoration over a decode-ahead prefetcher,
// times the core and the quality measurement as separate phases, measures
// quality with one extra pass over the raw source (no graph needed), and
// accounts the run's peak memory — the owner array, the measurement slab,
// stream buffers, the decorators' buffers, plus whatever dense state the
// core reported. The accounting is a deliberate upper bound (core state and
// measurement slab are charged together even though they do not coexist).
// Stats.Extra carries source_bytes_read when the source meters its storage
// traffic.
func (m StreamMethod) PartitionStream(ctx context.Context, src graph.Source, spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One prefetcher under everything: the assignment pass consumes it
	// through the shuffle (whose Unwrap exposes it), and the degree/measure
	// passes land on it via RawSource, so every pass decodes ahead of its
	// consumer.
	eff := graph.Prefetched(src)
	if m.Shuffle {
		eff = graph.Shuffled(eff, spec.Seed)
	}
	res := &Result{}
	res.Stats.Method = m.ID
	res.Stats.NumParts = spec.NumParts
	start := time.Now()
	p, err := m.Core(ctx, eff, spec, &res.Stats)
	if err != nil {
		return nil, err
	}
	res.Partitioning = p
	res.Stats.AddPhase("partition", time.Since(start))
	// The decorators can say how much of the partition phase their stages
	// took — the shuffle its scatter pass, the prefetcher its decode
	// goroutine's time inside the inner stream (RawSource stops at the
	// prefetcher, which is deliberately not an Unwrapper). Surfacing them as
	// phases puts the stage breakdown on traces (/debug/trace tiles phases).
	if sc, ok := eff.(interface{ ScatterTime() time.Duration }); ok {
		if d := sc.ScatterTime(); d > 0 {
			res.Stats.AddPhase("scatter", d)
		}
	}
	if dt, ok := graph.RawSource(eff).(interface{ DecodeTime() time.Duration }); ok {
		if d := dt.DecodeTime(); d > 0 {
			res.Stats.AddPhase("decode", d)
		}
	}
	mStart := time.Now()
	q, slabBytes, err := measureStream(ctx, eff, p)
	if err != nil {
		return nil, err
	}
	res.Quality = q
	res.Stats.AddPhase(PhaseMeasure, time.Since(mStart))
	res.Stats.PeakMemBytes += int64(len(p.Owner))*4 + slabBytes + graph.SourceBufferBytes
	if acct, ok := eff.(interface{ AccountBytes() int64 }); ok {
		res.Stats.PeakMemBytes += acct.AccountBytes()
	}
	if bm, ok := src.(graph.ByteMeter); ok {
		res.Stats.SetExtra("source_bytes_read", float64(bm.BytesRead()))
	}
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// Counts resolves a source's exact |V| and |E|, from its hints when known
// and otherwise with one counting pass over the raw (undecorated) source,
// polling ctx every chunk. Because the pass is exact, a core behaves
// identically with or without hints.
func Counts(ctx context.Context, src graph.Source) (numVertices uint32, numEdges int64, err error) {
	return graph.SourceCounts(src, func(int64) error { return ctx.Err() })
}

// DegreesAndCounts resolves the degree slab, |V| and |E| with a single
// pass over the raw (undecorated) source — the degree-aware cores' whole
// prologue, so a hint-less source (generators, binary files with possible
// self loops) is not scanned once for counts and again for degrees.
// Duplicate edges count per occurrence, exactly as they occupy stream
// positions; degree counting is order-independent, so the shuffle
// decorator is bypassed. Hints are honored when present; the slab grows
// geometrically past them only if the stream contradicts the declared |V|
// (a contract violation that ends in a larger slab, never a panic).
func DegreesAndCounts(ctx context.Context, src graph.Source) (deg []uint32, numVertices uint32, numEdges int64, err error) {
	info := graph.RawSource(src).Info()
	deg = make([]uint32, info.NumVertices)
	var maxV uint32
	var seen int64
	st, err := graph.RawSource(src).Edges()
	if err != nil {
		return nil, 0, 0, err
	}
	defer st.Close()
	for {
		chunk, _, err := st.Next()
		if err == io.EOF {
			nv := info.NumVertices
			if maxV > nv {
				nv = maxV
			}
			return deg[:nv], nv, seen, nil
		}
		if err != nil {
			return nil, 0, 0, err
		}
		for _, k := range chunk {
			u, v := uint32(k>>32), uint32(k)
			if v >= maxV {
				maxV = v + 1
			}
			if int(v) >= len(deg) {
				grown := make([]uint32, max(int(v)+1, 2*len(deg)))
				copy(grown, deg)
				deg = grown
			}
			deg[u]++
			deg[v]++
		}
		seen += int64(len(chunk))
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
	}
}

// EachEdge drives one pass over src, calling fn(pos, k) with each edge's
// raw stream position, and polls ctx every CheckEvery edges. It stops on
// fn's first error. It is the shared assignment loop under the streaming
// cores.
func EachEdge(ctx context.Context, src graph.Source, fn func(pos int64, k uint64) error) error {
	es, err := src.Edges()
	if err != nil {
		return err
	}
	defer es.Close()
	var seq int64
	var processed int
	for {
		chunk, pos, err := es.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		for j, k := range chunk {
			if processed%CheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			processed++
			p := seq + int64(j)
			if pos != nil {
				p = pos[j]
			}
			if err := fn(p, k); err != nil {
				return err
			}
		}
		seq += int64(len(chunk))
	}
}

// ReplicaSets is the dense per-vertex partition-set state shared by the
// replica-aware streaming cores (HDRF, FENNEL, Oblivious, SNE): one flat
// slab of ceil(P/64) words per vertex, indexed by vertex id — no per-vertex
// allocations, no maps, byte-accountable. Rows are bitset views, so the
// greedy placement rules reuse the bitset set operations unchanged.
type ReplicaSets struct {
	words int
	slab  []uint64
}

// NewReplicaSets returns dense sets of numParts bits for numVertices
// vertices, all empty.
func NewReplicaSets(numParts int, numVertices uint32) *ReplicaSets {
	w := bitset.WordsFor(numParts)
	return &ReplicaSets{words: w, slab: make([]uint64, int(numVertices)*w)}
}

// Row returns the mutable partition set of vertex v.
func (r *ReplicaSets) Row(v graph.Vertex) bitset.Set {
	off := int(v) * r.words
	return bitset.FromWords(r.slab[off : off+r.words])
}

// Set records a replica of vertex v on partition q.
func (r *ReplicaSets) Set(v graph.Vertex, q int) {
	r.slab[int(v)*r.words+q>>6] |= 1 << (uint(q) & 63)
}

// Bytes returns the accounted size of the slab.
func (r *ReplicaSets) Bytes() int64 { return int64(len(r.slab)) * 8 }

// Grow extends the slab to cover at least numVertices rows, preserving
// existing sets. Growth is geometric so a live ingest that keeps minting
// vertex ids amortizes to O(1) per vertex. Shrinking is a no-op.
func (r *ReplicaSets) Grow(numVertices uint32) {
	need := int(numVertices) * r.words
	if need <= len(r.slab) {
		return
	}
	grown := make([]uint64, max(need, 2*len(r.slab)))
	copy(grown, r.slab)
	r.slab = grown
}

// measureStream computes the Quality of p over the raw source's stream: the
// i-th raw stream edge must be owned by Owner[i]. It fills the same
// |V|×ceil(P/64)-word slab as Partitioning.Measure and shares its tally —
// for a canonical source the numbers are equal bit for bit — but runs
// without the graph. It also validates completeness: length mismatch between stream and owner
// array, unassigned or out-of-range owners all error.
func measureStream(ctx context.Context, src graph.Source, p *Partitioning) (Quality, int64, error) {
	src = graph.RawSource(src)
	words := bitset.WordsFor(p.NumParts)
	n := int(src.Info().NumVertices)
	slab := make([]uint64, n*words)
	edgeCounts := make([]int64, p.NumParts)
	st, err := src.Edges()
	if err != nil {
		return Quality{}, 0, err
	}
	defer st.Close()
	pos := 0
	for {
		chunk, _, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Quality{}, 0, err
		}
		if pos+len(chunk) > len(p.Owner) {
			return Quality{}, 0, fmt.Errorf("partition: stream yields more than %d edges, owner array exhausted", len(p.Owner))
		}
		for _, k := range chunk {
			o := p.Owner[pos]
			pos++
			if o == None {
				return Quality{}, 0, fmt.Errorf("partition: stream edge %d unassigned", pos-1)
			}
			if o < 0 || int(o) >= p.NumParts {
				return Quality{}, 0, fmt.Errorf("partition: stream edge %d has out-of-range owner %d", pos-1, o)
			}
			u, v := int(k>>32), int(uint32(k))
			if u >= n || v >= n {
				hi := u
				if v > hi {
					hi = v
				}
				grown := make([]uint64, max((hi+1)*words, 2*len(slab)))
				copy(grown, slab)
				slab = grown
				n = len(grown) / words
			}
			w, b := int(o)>>6, uint64(1)<<(uint(o)&63)
			slab[u*words+w] |= b
			slab[v*words+w] |= b
			edgeCounts[o]++
		}
		if err := ctx.Err(); err != nil {
			return Quality{}, 0, err
		}
	}
	if pos != len(p.Owner) {
		return Quality{}, 0, fmt.Errorf("partition: stream yielded %d edges, owner array has %d", pos, len(p.Owner))
	}
	return tally(slab, n, words, edgeCounts), int64(len(slab)) * 8, nil
}
