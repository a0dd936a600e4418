package dsa

import (
	"math/rand"
	"testing"
)

func TestBoundarySnapshotRestorePopsIdentically(t *testing.T) {
	// A restored boundary must pop the exact sequence the original would:
	// the snapshot's logical state fully determines behavior even though the
	// physical heap layout is discarded. The original keeps vertices in
	// permuted slots and the restored one in slots equal to the ids, as a
	// resumed Distributed NE machine renumbers its compact ids.
	rng := rand.New(rand.NewSource(17))
	const n = 500
	b := NewBoundary(n)
	slot := rng.Perm(n)
	update := func() {
		v := uint32(rng.Intn(n))
		b.Update(uint32(slot[v]), v, int32(rng.Intn(50)))
	}
	for i := 0; i < 300; i++ {
		update()
	}
	// Pop a batch, then refresh some scores to plant stale heap entries.
	b.PopK(20, make([]uint32, 0, 20))
	for i := 0; i < 100; i++ {
		update()
	}

	snap := b.Snapshot()
	if len(snap) != b.Len() {
		t.Fatalf("snapshot holds %d entries, boundary %d live vertices", len(snap), b.Len())
	}
	for i, e := range snap {
		if i > 0 && e.V <= snap[i-1].V {
			t.Fatalf("snapshot not strictly ascending at %d: %d after %d", i, e.V, snap[i-1].V)
		}
		if e.S != uint32(slot[e.V]) {
			t.Fatalf("snapshot puts vertex %d in slot %d, want %d", e.V, e.S, slot[e.V])
		}
		snap[i].S = e.V
	}
	r := NewBoundary(n)
	r.Restore(snap, b.Peak())

	if r.Len() != b.Len() {
		t.Fatalf("restored Len %d != original %d", r.Len(), b.Len())
	}
	if r.Peak() < b.Peak() {
		t.Fatalf("restored Peak %d < original %d", r.Peak(), b.Peak())
	}
	for {
		v1, ok1 := b.PopMin()
		v2, ok2 := r.PopMin()
		if ok1 != ok2 {
			t.Fatalf("pop streams diverge: original ok=%v restored ok=%v", ok1, ok2)
		}
		if !ok1 {
			break
		}
		if v1 != v2 {
			t.Fatalf("pop streams diverge: original %d restored %d", v1, v2)
		}
	}
}
