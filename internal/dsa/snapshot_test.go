package dsa

import (
	"math/rand"
	"testing"
)

func TestBoundarySnapshotRestorePopsIdentically(t *testing.T) {
	// A restored boundary must pop the exact sequence the original would:
	// the snapshot's logical state fully determines behavior even though the
	// physical heap layout is discarded.
	rng := rand.New(rand.NewSource(17))
	const n = 500
	b := NewBoundary(n)
	for i := 0; i < 300; i++ {
		b.Update(uint32(rng.Intn(n)), int32(rng.Intn(50)))
	}
	// Pop a batch, then refresh some scores to plant stale heap entries.
	b.PopK(20, make([]uint32, 0, 20))
	for i := 0; i < 100; i++ {
		b.Update(uint32(rng.Intn(n)), int32(rng.Intn(50)))
	}

	r := NewBoundary(n)
	r.Restore(b.Snapshot(), b.Peak())

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
