package datasets

import (
	"testing"
)

func TestAllSkewedSpecsBuild(t *testing.T) {
	for _, s := range Skewed {
		g := s.Build(-4) // tiny
		if g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", s.Name)
		}
	}
}

func TestShiftScalesEdges(t *testing.T) {
	s := Skewed[0]
	small := s.Build(-4)
	big := s.Build(-2)
	if big.NumEdges() < 2*small.NumEdges() {
		t.Errorf("shift -2 edges %d not well above shift -4 edges %d",
			big.NumEdges(), small.NumEdges())
	}
}

func TestMidIsSubsetOfSkewed(t *testing.T) {
	mid := Mid()
	if len(mid) == 0 || len(mid) > len(Skewed) {
		t.Fatalf("Mid() size %d", len(mid))
	}
	for i, s := range mid {
		if s.Name != Skewed[i].Name {
			t.Errorf("Mid()[%d] = %s, want %s", i, s.Name, Skewed[i].Name)
		}
	}
}

func TestRoadSpecsBuild(t *testing.T) {
	for _, r := range Roads {
		g := r.Build(-4)
		if g.NumEdges() == 0 {
			t.Errorf("%s: empty road network", r.Name)
		}
		// Road networks are sparse: average degree must stay below ~4.
		if g.AvgDegree() > 4.5 {
			t.Errorf("%s: avg degree %.2f too high for a road network", r.Name, g.AvgDegree())
		}
	}
}
