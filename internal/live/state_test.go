package live

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"github.com/distributedne/dne/internal/graph"
)

// stateChecksum returns an FNV-64a digest of the placement-relevant state:
// the per-partition sizes and every vertex's incidence row. Two states with
// equal checksums place future arrivals identically.
func stateChecksum(st *State) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range st.sizes {
		binary.LittleEndian.PutUint64(b[:], uint64(s))
		h.Write(b[:])
	}
	p := st.cfg.NumParts
	for v := range st.deg {
		if st.deg[v] == 0 {
			continue
		}
		binary.LittleEndian.PutUint32(b[:4], uint32(v))
		binary.LittleEndian.PutUint32(b[4:], st.deg[v])
		h.Write(b[:])
		for q, c := range st.counts[v*p : (v+1)*p] {
			if c == 0 {
				continue
			}
			binary.LittleEndian.PutUint32(b[:4], uint32(q))
			binary.LittleEndian.PutUint32(b[4:], c)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestVertexCountMatchesScan drives a seeded mix of inserts, deletes and
// rebalance moves through State and checks, after every step, that the
// incrementally kept live-vertex count equals a scan of the degree slab.
func TestVertexCountMatchesScan(t *testing.T) {
	const parts = 4
	st, err := NewState(Config{NumParts: parts})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	owner := map[graph.Edge]int32{}
	var live []graph.Edge
	for step := 0; step < 20_000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(live) == 0:
			u, v := graph.Vertex(rng.Intn(300)), graph.Vertex(rng.Intn(300))
			if u == v {
				continue
			}
			e := graph.Edge{U: min(u, v), V: max(u, v)}
			if _, ok := owner[e]; ok {
				continue
			}
			q := st.Place(e.U, e.V)
			st.ApplyInsert(e.U, e.V, q)
			owner[e] = q
			live = append(live, e)
		case op < 8:
			i := rng.Intn(len(live))
			e := live[i]
			st.ApplyDelete(e.U, e.V, owner[e])
			delete(owner, e)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			e := live[rng.Intn(len(live))]
			to := (owner[e] + 1 + int32(rng.Intn(parts-1))) % parts
			st.ApplyMove(e.U, e.V, owner[e], to)
			owner[e] = to
		}
		var scan int64
		for _, d := range st.deg {
			if d > 0 {
				scan++
			}
		}
		if st.NumVertices() != scan {
			t.Fatalf("step %d: counter holds %d live vertices, scan finds %d", step, st.NumVertices(), scan)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
