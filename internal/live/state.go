// Package live is the dynamic-graph subsystem: it accepts a stream of edge
// insertions and deletions, assigns each arrival to a partition
// incrementally, and serves queries throughout — no full re-partition, no
// reader stalls. It is the §8 "dynamic graphs" extension made concrete:
//
//   - State is the streaming-partitioner state (dense degree and
//     incidence slabs plus a partition.ReplicaSets bit view) applying a
//     replica-aware greedy placement built on neighbor expansion's two
//     heuristics (§3.1), RNG-free and therefore a pure function of the
//     event stream. The first mutation rebuilds it from the graph that
//     Open read from the directory, or that Create seeded from a static
//     partitioning such as a Distributed NE result.
//   - Per partition, the directory holds a sorted ESZ1 base (a shard
//     file) and append-only EShard tails of insertions and tombstones
//     since it: the only durable copy of the graph.
//   - Reads resolve against a store.Epoch — immutable base CSR plus a few
//     immutable sorted overlay runs that consecutive epochs share — pinned
//     with one atomic load; a compaction folds the overlay into a fresh
//     base and publishes the next epoch.
//   - A bounded-budget rebalancer migrates edges off overloaded partitions
//     as ordinary overlay mutations, so migrations ride the same epoch
//     machinery as arrivals.
package live

import (
	"errors"
	"fmt"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// Config parameterizes a live partitioner.
type Config struct {
	// NumParts is the partition (serving shard) count. Required.
	NumParts int
	// Seed labels the run for provenance only. Placement is RNG-free, so
	// no result depends on it, and it is neither persisted nor compared on
	// reopen.
	Seed int64
}

func (c Config) validate() error {
	if c.NumParts <= 0 || c.NumParts > maxParts {
		return fmt.Errorf("live: numParts %d out of range (0,%d]", c.NumParts, maxParts)
	}
	return nil
}

const (
	// maxParts bounds the partition count (the incidence slab is |V|×P).
	maxParts = 1 << 12
	// alpha is the imbalance factor α of Eq. (2) at the paper's setting,
	// enforced against the moving edge count.
	alpha = 1.1
)

// State is the incremental placement state: per-vertex live degree, the
// |V|×P incidence-count slab (how many of v's edges live on each
// partition — exact retraction needs counts, not bits), the ReplicaSets
// bit view derived from it, and per-partition sizes. All slabs are dense
// and grow geometrically as the stream mints vertex ids.
//
// State is not safe for concurrent use; Live serializes writers.
type State struct {
	cfg      Config
	deg      []uint32 // per-vertex live degree
	counts   []uint32 // row-major |V|×P incidence counts
	reps     *partition.ReplicaSets
	sizes    []int64 // per-partition edge counts
	numEdges int64
	vertices int64 // vertices with live degree > 0, maintained incrementally
	replicas int64 // Σ_v |parts(v)|, maintained incrementally

	// events counts applied mutations, moved counts rebalancer migrations,
	// migratedBytes the log traffic those migrations wrote — all since
	// Open, which rebuilds the slabs from the logs and not this history.
	events        uint64
	moved         int64
	migratedBytes int64
}

// NewState returns empty placement state for cfg.
func NewState(cfg Config) (*State, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &State{
		cfg:   cfg,
		reps:  partition.NewReplicaSets(cfg.NumParts, 0),
		sizes: make([]int64, cfg.NumParts),
	}, nil
}

// NumVertices returns the number of vertices with at least one live edge.
func (st *State) NumVertices() int64 { return st.vertices }

// Sizes returns a copy of the per-partition edge counts.
func (st *State) Sizes() []int64 {
	out := make([]int64, len(st.sizes))
	copy(out, st.sizes)
	return out
}

// ReplicationFactor returns Σ_v |parts(v)| / |V_live| (Eq. 1), 0 when empty.
func (st *State) ReplicationFactor() float64 {
	n := st.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(st.replicas) / float64(n)
}

// EdgeBalance returns max |Ep| / mean |Ep| (1 when empty).
func (st *State) EdgeBalance() float64 {
	var sum, max int64
	for _, s := range st.sizes {
		sum += s
		if s > max {
			max = s
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(max) / (float64(sum) / float64(len(st.sizes)))
}

// ErrVertexClaim marks a batch or a directory rejected because its vertex
// ids would size the per-vertex slabs further than the logged edges pay for.
var ErrVertexClaim = errors.New("live: vertex ids not backed by logged edges")

// grow extends the per-vertex slabs to cover v.
func (st *State) grow(v graph.Vertex) {
	if int(v) < len(st.deg) {
		return
	}
	n := max(int(v)+1, 2*len(st.deg))
	deg := make([]uint32, n)
	copy(deg, st.deg)
	st.deg = deg
	counts := make([]uint32, n*st.cfg.NumParts)
	copy(counts, st.counts)
	st.counts = counts
	st.reps.Grow(uint32(n))
}

// countsRow returns v's incidence-count row (nil for never-seen vertices).
func (st *State) countsRow(v graph.Vertex) []uint32 {
	if int(v) >= len(st.deg) {
		return nil
	}
	p := st.cfg.NumParts
	return st.counts[int(v)*p : (int(v)+1)*p]
}

// shareReplica reports whether some partition holds live edges of both u
// and v: only such a partition can hold edge (u,v).
func (st *State) shareReplica(u, v graph.Vertex) bool {
	if int(max(u, v)) >= len(st.deg) {
		return false
	}
	a, b := st.reps.Row(u).Words(), st.reps.Row(v).Words()
	for i := range a {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// capEdges is the α cap against the current edge count plus extra pending
// insertions; it moves as the graph grows, so a long insert stream cannot
// wedge every partition at once.
func (st *State) capEdges(extra int64) int64 {
	c := int64(alpha * float64(st.numEdges+extra) / float64(st.cfg.NumParts))
	if c < 1 {
		c = 1
	}
	return c
}

// Place scores every partition for inserting edge (u,v):
//
//	score(q) = [u on q] + [v on q] − (size_q / cap)²,
//
// so partitions already covering both endpoints (no new replicas)
// dominate, then one endpoint, and the quadratic penalty steers ties and
// spill-over to underloaded partitions. Partitions at the α cap are
// excluded unless all are (then the least-loaded wins). Ties break to the
// lowest id — the whole rule is RNG-free, so placement is a pure function
// of the event stream. Place does not mutate state.
func (st *State) Place(u, v graph.Vertex) int32 {
	cap := st.capEdges(1)
	ru, rv := st.countsRow(u), st.countsRow(v)
	best := int32(-1)
	bestScore := float64(-1 << 62)
	for q := 0; q < st.cfg.NumParts; q++ {
		if st.sizes[q] >= cap {
			continue
		}
		var gain float64
		if ru != nil && ru[q] > 0 {
			gain++
		}
		if rv != nil && rv[q] > 0 {
			gain++
		}
		load := float64(st.sizes[q]) / float64(cap)
		score := gain - load*load
		if score > bestScore {
			bestScore = score
			best = int32(q)
		}
	}
	if best == -1 {
		best = 0
		for q := 1; q < st.cfg.NumParts; q++ {
			if st.sizes[q] < st.sizes[best] {
				best = int32(q)
			}
		}
	}
	return best
}

// BestTarget picks the migration destination for moving edge (u,v) off
// partition q: maximize endpoint coverage, then prefer lower load; only
// strictly less-loaded destinations qualify (−1 if none). Deterministic:
// ties break to the lowest id.
func (st *State) BestTarget(u, v graph.Vertex, q int32) int32 {
	ru, rv := st.countsRow(u), st.countsRow(v)
	best := int32(-1)
	bestKey := float64(-1 << 62)
	for t := int32(0); t < int32(st.cfg.NumParts); t++ {
		if t == q || st.sizes[t] >= st.sizes[q]-1 {
			continue
		}
		var gain float64
		if ru[t] > 0 {
			gain++
		}
		if rv[t] > 0 {
			gain++
		}
		key := gain - float64(st.sizes[t])/float64(st.sizes[q]+1)
		if key > bestKey {
			bestKey = key
			best = t
		}
	}
	return best
}

// ApplyInsert records edge (u,v) on partition q.
func (st *State) ApplyInsert(u, v graph.Vertex, q int32) {
	st.grow(max(u, v))
	st.addIncidence(u, q)
	st.addIncidence(v, q)
	st.sizes[q]++
	st.numEdges++
	st.events++
}

// ApplyDelete retracts edge (u,v) from partition q. Replica sets shrink
// exactly: a vertex leaves a partition with its last incident edge there.
func (st *State) ApplyDelete(u, v graph.Vertex, q int32) {
	st.dropIncidence(u, q)
	st.dropIncidence(v, q)
	st.sizes[q]--
	st.numEdges--
	st.events++
}

// ApplyMove migrates edge (u,v) from partition q to t, counting the move
// and the log bytes the migration writes (one tombstone + one add record).
func (st *State) ApplyMove(u, v graph.Vertex, q, t int32) {
	st.dropIncidence(u, q)
	st.dropIncidence(v, q)
	st.sizes[q]--
	st.addIncidence(u, t)
	st.addIncidence(v, t)
	st.sizes[t]++
	st.moved++
	st.migratedBytes += 2 * 8 // packed edge record in the dead and add logs
	st.events++
}

func (st *State) addIncidence(v graph.Vertex, q int32) {
	if st.deg[v] == 0 {
		st.vertices++
	}
	st.deg[v]++
	row := st.countsRow(v)
	if row[q] == 0 {
		st.replicas++
		st.reps.Set(v, int(q))
	}
	row[q]++
}

func (st *State) dropIncidence(v graph.Vertex, q int32) {
	st.deg[v]--
	if st.deg[v] == 0 {
		st.vertices--
	}
	row := st.countsRow(v)
	row[q]--
	if row[q] == 0 {
		st.replicas--
		st.reps.Row(v).Clear(int(q))
	}
}

// CheckInvariants verifies slab consistency: every vertex's degree equals
// its incidence-row sum, the vertex and replica counters and the bit view
// match the slabs, and partition sizes sum to the edge count twice over the
// degree slab. O(|V|×P); tests call it after update storms.
func (st *State) CheckInvariants() error {
	var degSum, vertices, replicas int64
	p := st.cfg.NumParts
	for v := range st.deg {
		var rowSum uint32
		row := st.counts[v*p : (v+1)*p]
		for q, c := range row {
			if (c > 0) != st.reps.Row(graph.Vertex(v)).Has(q) {
				return fmt.Errorf("live: vertex %d partition %d bit view disagrees with count %d", v, q, c)
			}
			if c > 0 {
				replicas++
			}
			rowSum += c
		}
		if rowSum != st.deg[v] {
			return fmt.Errorf("live: vertex %d degree %d != incidence sum %d", v, st.deg[v], rowSum)
		}
		degSum += int64(st.deg[v])
		if st.deg[v] > 0 {
			vertices++
		}
	}
	if degSum != 2*st.numEdges {
		return fmt.Errorf("live: degree sum %d != 2×%d edges", degSum, st.numEdges)
	}
	if vertices != st.vertices {
		return fmt.Errorf("live: vertex counter %d, degree slab holds %d live vertices", st.vertices, vertices)
	}
	if replicas != st.replicas {
		return fmt.Errorf("live: replica counter %d, rows hold %d", st.replicas, replicas)
	}
	var sum int64
	for _, s := range st.sizes {
		if s < 0 {
			return fmt.Errorf("live: negative partition size %d", s)
		}
		sum += s
	}
	if sum != st.numEdges {
		return fmt.Errorf("live: partition sizes sum to %d, state holds %d edges", sum, st.numEdges)
	}
	return nil
}
