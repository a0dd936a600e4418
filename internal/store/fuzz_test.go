package store

import (
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/graph"
)

// FuzzKHop is a differential target for KHop. The input's first four bytes
// give |V| (1–256), the shard count (1–8), k (0–4) and the source; each
// following triple (op, u, v) names an edge and what happens to it: op%4
// is the kind, bits 2–6 name a shard (mod the shard count), and the top bit
// a publish point. In a first pass, kinds 0 and 1 put the edge in the base
// on its shard. In a second pass through a Writer, an op with the top bit
// set first takes an epoch, which seals the pending mutations into a run;
// then kind 2 puts the edge on its shard, inserting it (ids up to |V|+7, so
// some are minted beyond the base) or moving it there from another shard,
// and kind 3 deletes it wherever it lives. So an edge's insertion, deletion,
// re-insertion and moves land in different runs. Before each mutation the
// writer must name the edge's owner as a map model does. KHop on the epoch,
// and on its base alone, must equal bfsOracle, and leave the scratch clean;
// each shard of the epoch must list the model's edges.
//
// Run locally with:
//
//	go test -run='^$' -fuzz=FuzzKHop -fuzztime=30s ./internal/store
func FuzzKHop(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	clique := []byte{99, 2, 2, 5}
	for u := byte(0); u < 24; u++ {
		for v := u + 1; v < 24; v++ {
			clique = append(clique, u&1, u, v)
		}
	}
	f.Add(append(clique, 3, 0, 1, 3, 5, 6, 2, 0, 99, 6, 100, 105, 3, 0, 99))
	star := []byte{255, 7, 4, 7}
	for v := byte(1); v < 255; v++ {
		star = append(star, v, 0, v)
	}
	f.Add(append(star, 2, 1, 2, 6, 1, 3, 3, 0, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := graph.Vertex(data[0]) + 1
		numShards := int(data[1])%8 + 1
		k := int(data[2]) % 5
		src := graph.Vertex(data[3]) % n
		ops := data[4:]
		ops = ops[:len(ops)/3*3]

		live := map[uint64]int32{}
		packed := make([][]uint64, numShards)
		for i := 0; i < len(ops); i += 3 {
			u, v := graph.Vertex(ops[i+1])%n, graph.Vertex(ops[i+2])%n
			if ops[i]%4 > 1 || u == v {
				continue
			}
			key := graph.PackEdge(min(u, v), max(u, v))
			if _, dup := live[key]; !dup {
				s := int(ops[i]>>2&31) % numShards
				live[key] = int32(s)
				packed[s] = append(packed[s], key)
			}
		}
		for _, p := range packed {
			slices.Sort(p)
		}
		st, err := BuildFromShards(uint32(n), packed)
		if err != nil {
			t.Fatal(err)
		}

		w := NewWriter(st)
		for i := 0; i < len(ops); i += 3 {
			op := ops[i]
			u, v := graph.Vertex(ops[i+1])%(n+7), graph.Vertex(ops[i+2])%(n+7)
			if op%4 < 2 || u == v {
				continue
			}
			if op&0x80 != 0 {
				w.Epoch(0)
			}
			u, v = min(u, v), max(u, v)
			key := graph.PackEdge(u, v)
			q, isLive := live[key]
			if !isLive {
				q = dead
			}
			if got := w.Owner(u, v); got != q {
				t.Fatalf("writer owner of (%d,%d) = %d, model %d", u, v, got, q)
			}
			s := int32(op>>2&31) % int32(numShards)
			switch {
			case op%4 == 2 && !isLive:
				w.Add(int(s), u, v)
				live[key] = s
			case op%4 == 2 && q != s:
				w.Remove(int(q), u, v)
				w.Add(int(s), u, v)
				live[key] = s
			case op%4 == 3 && isLive:
				w.Remove(int(q), u, v)
				delete(live, key)
			}
		}
		ep := w.Epoch(1)
		want := make([][]uint64, numShards)
		for key, s := range live {
			want[s] = append(want[s], key)
		}
		for s := range want {
			slices.Sort(want[s])
			if got := ep.ShardEdgesPacked(s); !slices.Equal(got, want[s]) || ep.ShardEdges(s) != int64(len(want[s])) {
				t.Fatalf("shard %d holds %v (count %d), model %v", s, got, ep.ShardEdges(s), want[s])
			}
		}
		checkKHop(t, "base", st, graph.FromPacked(uint32(n), slices.Concat(packed...)), src, k)
		checkScratchClean(t, "base")
		checkKHop(t, "epoch", ep, overlayGraph(ep, want), src, k)
		checkScratchClean(t, "epoch")
	})
}
