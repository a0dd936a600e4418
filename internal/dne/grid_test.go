package dne

import (
	"math/rand"
	"slices"
	"testing"
)

// TestDivisorMatchesMod checks the division-free reduction against % for
// every divisor 1–4096: on 0, 2^64−1, multiples of the divisor and their
// neighbours, and 256 random words per divisor (about 10^6 in all).
func TestDivisorMatchesMod(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for d := uint64(1); d <= 4096; d++ {
		dv := newDivisor(d)
		top := ^uint64(0) / d * d
		words := []uint64{0, ^uint64(0), d, d - 1, d + 1, 2 * d, 7919 * d, top, top - 1, top - d, 1 << 63}
		for i := 0; i < 256; i++ {
			words = append(words, rng.Uint64(), rng.Uint64()/d*d)
		}
		for _, a := range words {
			if got, want := dv.mod(a), a%d; got != want {
				t.Fatalf("%d mod %d = %d, want %d", a, d, got, want)
			}
		}
	}
}

// TestGridMatchesModReference checks row, cellOwner, edgeOwner and
// vertexProcs against the %-based definition of the 2D hash for P = 1–300.
func TestGridMatchesModReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for p := 1; p <= 300; p++ {
		gd := newGrid(p)
		r, c := uint64(gd.r), uint64(gd.c)
		for n := 0; n < 200; n++ {
			u, v := rng.Uint32(), rng.Uint32()
			i, j := int(hashRow(u)%r), int(hashCol(v)%c)
			if got := gd.row(u); got != i {
				t.Fatalf("P=%d: row(%d) = %d, want %d", p, u, got, i)
			}
			want := (i*gd.c + j) % p
			if got := gd.cellOwner(i, v); got != want {
				t.Fatalf("P=%d: cellOwner(%d, %d) = %d, want %d", p, i, v, got, want)
			}
			if got := gd.edgeOwner(u, v); got != want {
				t.Fatalf("P=%d: edgeOwner(%d, %d) = %d, want %d", p, u, v, got, want)
			}
			// u's replica set: its row's machines ∪ its column's.
			ui, uj := int(hashRow(u)%r), int(hashCol(u)%c)
			var set []int
			for jj := 0; jj < gd.c; jj++ {
				set = append(set, (ui*gd.c+jj)%p)
			}
			for ii := 0; ii < gd.r; ii++ {
				set = append(set, (ii*gd.c+uj)%p)
			}
			slices.Sort(set)
			if got := gd.vertexProcs(u); !slices.Equal(got, slices.Compact(set)) {
				t.Fatalf("P=%d: vertexProcs(%d) = %v, want %v", p, u, got, slices.Compact(set))
			}
		}
	}
}
