package live

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// model is the reference for live placement: the replica-aware greedy rule
// and the bounded rebalance written over Go maps, as the dynpart package
// first implemented them, scanning every partition per decision. It shares no code with State or Live, so owner-for-owner
// agreement under random histories checks the dense slabs, the epoch
// overlay, compaction and reopen against the rule as first stated.
type model struct {
	parts int
	owner map[uint64]int32         // packed canonical edge → partition
	inc   map[graph.Vertex][]int32 // vertex → incident edges per partition
	sizes []int64
}

func newModel(parts int) *model {
	return &model{
		parts: parts,
		owner: make(map[uint64]int32),
		inc:   make(map[graph.Vertex][]int32),
		sizes: make([]int64, parts),
	}
}

func (m *model) capEdges(extra int64) int64 {
	return max(int64(1.1*float64(int64(len(m.owner))+extra)/float64(m.parts)), 1)
}

func (m *model) on(v graph.Vertex, q int32) bool { return m.inc[v] != nil && m.inc[v][q] > 0 }

// place is score(q) = [u on q] + [v on q] − (size_q / cap)² over the
// partitions below the α cap, lowest id on ties, else the least loaded.
func (m *model) place(u, v graph.Vertex) int32 {
	cap := m.capEdges(1)
	best, bestScore := int32(-1), math.Inf(-1)
	for q := int32(0); q < int32(m.parts); q++ {
		if m.sizes[q] >= cap {
			continue
		}
		var gain float64
		if m.on(u, q) {
			gain++
		}
		if m.on(v, q) {
			gain++
		}
		load := float64(m.sizes[q]) / float64(cap)
		if score := gain - load*load; score > bestScore {
			best, bestScore = q, score
		}
	}
	if best < 0 {
		best = 0
		for q := int32(1); q < int32(m.parts); q++ {
			if m.sizes[q] < m.sizes[best] {
				best = q
			}
		}
	}
	return best
}

// target picks where rebalance moves (u,v) off q: most endpoints covered,
// then least loaded, among partitions strictly less loaded; −1 if none.
func (m *model) target(u, v graph.Vertex, q int32) int32 {
	best, bestKey := int32(-1), math.Inf(-1)
	for t := int32(0); t < int32(m.parts); t++ {
		if t == q || m.sizes[t] >= m.sizes[q]-1 {
			continue
		}
		var gain float64
		if m.on(u, t) {
			gain++
		}
		if m.on(v, t) {
			gain++
		}
		if key := gain - float64(m.sizes[t])/float64(m.sizes[q]+1); key > bestKey {
			best, bestKey = t, key
		}
	}
	return best
}

func (m *model) insert(k uint64, q int32) {
	m.owner[k] = q
	m.sizes[q]++
	e := graph.UnpackEdge(k)
	for _, v := range [2]graph.Vertex{e.U, e.V} {
		if m.inc[v] == nil {
			m.inc[v] = make([]int32, m.parts)
		}
		m.inc[v][q]++
	}
}

func (m *model) remove(k uint64) {
	q := m.owner[k]
	delete(m.owner, k)
	m.sizes[q]--
	e := graph.UnpackEdge(k)
	for _, v := range [2]graph.Vertex{e.U, e.V} {
		m.inc[v][q]--
		if !slices.ContainsFunc(m.inc[v], func(c int32) bool { return c > 0 }) {
			delete(m.inc, v)
		}
	}
}

// keys returns the model's edges in canonical order, those on partition q
// only when q ≥ 0.
func (m *model) keys(q int32) []uint64 {
	var out []uint64
	for k, o := range m.owner {
		if q < 0 || o == q {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// apply follows Live.Apply's event semantics and returns how many events
// changed the edge set.
func (m *model) apply(events []dynpart.Event) int {
	changed := 0
	for _, ev := range events {
		c := ev.Edge.Canon()
		k := graph.PackEdge(c.U, c.V)
		_, present := m.owner[k]
		switch {
		case c.U == c.V:
		case ev.Op == dynpart.Add && !present:
			m.insert(k, m.place(c.U, c.V))
			changed++
		case ev.Op == dynpart.Remove && present:
			m.remove(k)
			changed++
		}
	}
	return changed
}

// rebalance visits overloaded partitions in id order and their edges in
// canonical order, moving each to its target until the partition is back
// under the cap or the budget is spent.
func (m *model) rebalance(budget int) int {
	cap := m.capEdges(0)
	moved := 0
	for q := int32(0); q < int32(m.parts) && moved < budget; q++ {
		if m.sizes[q] <= cap {
			continue
		}
		for _, k := range m.keys(q) {
			if m.sizes[q] <= cap || moved >= budget {
				break
			}
			e := graph.UnpackEdge(k)
			if t := m.target(e.U, e.V, q); t >= 0 {
				m.remove(k)
				m.insert(k, t)
				moved++
			}
		}
	}
	return moved
}

// check asserts that l serves exactly the model's edges, each on the
// model's partition, with the model's sizes, vertex count and replication
// factor, and that l's slabs are self-consistent.
func (m *model) check(t *testing.T, l *Live) {
	t.Helper()
	ep := l.Epoch()
	n := 0
	for q := 0; q < ep.NumShards(); q++ {
		for _, k := range ep.ShardEdgesPacked(q) {
			if o, ok := m.owner[k]; !ok || o != int32(q) {
				t.Fatalf("edge %v served by partition %d; model: owner %d, present %v", graph.UnpackEdge(k), q, o, ok)
			}
			n++
		}
	}
	if n != len(m.owner) {
		t.Fatalf("live serves %d edges, model holds %d", n, len(m.owner))
	}
	st := l.State()
	var replicas int64
	for _, c := range m.inc {
		for _, x := range c {
			if x > 0 {
				replicas++
			}
		}
	}
	var rf float64
	if len(m.inc) > 0 {
		rf = float64(replicas) / float64(len(m.inc))
	}
	if st.numEdges != int64(n) || st.NumVertices() != int64(len(m.inc)) ||
		!slices.Equal(st.Sizes(), m.sizes) || st.ReplicationFactor() != rf {
		t.Fatalf("state |E|=%d |V|=%d sizes %v RF %v; model |E|=%d |V|=%d sizes %v RF %v",
			st.numEdges, st.NumVertices(), st.Sizes(), st.ReplicationFactor(), n, len(m.inc), m.sizes, rf)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStatePlacementMatchesDynpart drives random interleavings of
// insertions and deletions of dynpart events (duplicates, misses, self
// loops and both orientations included), bounded rebalances, compactions
// and close+reopen through Live and the map model side by side, from a
// seed that puts every edge on partition 0 so rebalancing has work. After
// every step the two agree owner for owner; at the end every edge is
// deleted and both are empty.
func TestStatePlacementMatchesDynpart(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		parts := 2 + rng.Intn(6)
		pool := gen.RMAT(8, 8, seed).Edges()
		g := graph.FromEdges(0, pool[:len(pool)/4])
		p := partition.New(parts, g.NumEdges())
		for i := range p.Owner {
			p.Owner[i] = 0
		}
		dir := t.TempDir()
		l, err := Create(dir, Config{NumParts: parts, Seed: seed}, g, p)
		if err != nil {
			t.Fatal(err)
		}
		m := newModel(parts)
		for _, e := range g.Edges() {
			m.insert(graph.PackEdge(e.U, e.V), 0)
		}
		m.check(t, l)
		moves := 0
		for step := 0; step < 80; step++ {
			switch r := rng.Intn(10); {
			case r < 6:
				batch := make([]dynpart.Event, 1+rng.Intn(200))
				for i := range batch {
					e := pool[rng.Intn(len(pool))]
					switch rng.Intn(8) {
					case 0:
						e.V = e.U
					case 1:
						e.U, e.V = e.V, e.U
					}
					op := dynpart.Add
					if rng.Intn(3) == 0 {
						op = dynpart.Remove
					}
					batch[i] = dynpart.Event{Op: op, Edge: e}
				}
				want := m.apply(batch)
				if got, err := l.Apply(batch); err != nil || got != want {
					t.Fatalf("seed %d step %d: Apply changed %d (err %v), model %d", seed, step, got, err, want)
				}
			case r < 8:
				budget := rng.Intn(300)
				want := m.rebalance(budget)
				if got, err := l.Rebalance(budget); err != nil || got != want {
					t.Fatalf("seed %d step %d: Rebalance(%d) moved %d (err %v), model %d", seed, step, budget, got, err, want)
				}
				moves += want
			case r < 9:
				if err := l.Compact(); err != nil {
					t.Fatal(err)
				}
			default:
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if l, err = Open(dir, Config{}); err != nil {
					t.Fatal(err)
				}
			}
			m.check(t, l)
		}
		if moves == 0 {
			t.Fatalf("seed %d: no rebalance moved an edge; the migration path is not exercised", seed)
		}
		var drain []dynpart.Event
		for _, k := range m.keys(-1) {
			drain = append(drain, dynpart.Event{Op: dynpart.Remove, Edge: graph.UnpackEdge(k)})
		}
		want := m.apply(drain)
		if got, err := l.Apply(drain); err != nil || got != want {
			t.Fatalf("seed %d: drain changed %d (err %v), model %d", seed, got, err, want)
		}
		m.check(t, l)
		if l.State().NumVertices() != 0 {
			t.Fatalf("seed %d: %d vertices left after deleting every edge", seed, l.State().NumVertices())
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
