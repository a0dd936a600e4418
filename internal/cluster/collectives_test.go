package cluster

import (
	"testing"
	"testing/quick"
	"time"
)

// runAll drives fn on every machine of a fresh n-cluster and fails the test
// on any error.
func runAll(t *testing.T, n int, fn func(c Comm) error) {
	t.Helper()
	if err := New(n).Run(fn); err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherMin(t *testing.T) {
	runAll(t, 5, func(c Comm) error {
		got := AllGatherMin(c, int64(10-c.Rank()))
		if got != 6 {
			t.Errorf("rank %d: min %d, want 6", c.Rank(), got)
		}
		return nil
	})
}

func TestExtCollectivesSingleMachine(t *testing.T) {
	runAll(t, 1, func(c Comm) error {
		if AllGatherMin(c, 9) != 9 {
			t.Error("size-1 AllGatherMin must be the identity")
		}
		return nil
	})
}

func TestQuickAllGatherSumVecMatchesLocalSum(t *testing.T) {
	f := func(vals [][4]int16, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		if len(vals) < n {
			return true
		}
		want := [4]int64{}
		for r := 0; r < n; r++ {
			for j := 0; j < 4; j++ {
				want[j] += int64(vals[r][j])
			}
		}
		ok := true
		err := New(n).Run(func(c Comm) error {
			x := make([]int64, 4)
			for j := 0; j < 4; j++ {
				x[j] = int64(vals[c.Rank()][j])
			}
			got := AllGatherSumVec(c, x)
			for j := 0; j < 4; j++ {
				if got[j] != want[j] {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChaosPreservesCollectiveResults(t *testing.T) {
	// The same collective sequence under Chaos must give identical results:
	// receivers re-sort by (From, Seq) and the wrapper preserves per-sender
	// order.
	runAll(t, 5, func(c Comm) error {
		w := NewChaos(c, int64(c.Rank())*31+7, 200*time.Microsecond)
		defer w.Close()
		for round := 0; round < 5; round++ {
			sum := AllGatherSum(w, int64(c.Rank()+round))
			want := int64(10 + 5*round)
			if sum != want {
				t.Errorf("round %d rank %d: sum %d, want %d", round, c.Rank(), sum, want)
			}
			vec := AllGatherSumVec(w, []int64{int64(c.Rank()), 1})
			if vec[0] != 10 || vec[1] != 5 {
				t.Errorf("round %d rank %d: vec %v", round, c.Rank(), vec)
			}
			w.Barrier()
		}
		return nil
	})
}
