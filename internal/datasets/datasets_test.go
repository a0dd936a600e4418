package datasets

import "testing"

func TestSkewedSpecsBuild(t *testing.T) {
	for _, spec := range Skewed {
		g := spec.Build(-4) // tiny for test speed
		if g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", spec.Name)
		}
		// Every stand-in must be skewed: heavy tail far above the mean.
		if g.MaxDegree() < 5*int64(g.AvgDegree()) {
			t.Errorf("%s: max degree %d vs avg %.1f — not skewed", spec.Name, g.MaxDegree(), g.AvgDegree())
		}
	}
}

func TestShiftScalesVertices(t *testing.T) {
	spec := Skewed[0]
	small := spec.Build(-2)
	big := spec.Build(-1)
	if big.NumVertices() != 2*small.NumVertices() {
		t.Errorf("shift must double vertices: %d vs %d", small.NumVertices(), big.NumVertices())
	}
}

func TestMidIsFour(t *testing.T) {
	mid := Mid()
	if len(mid) != 4 || mid[0].Name != "Pokec" || mid[3].Name != "Orkut" {
		t.Errorf("Mid() = %v", mid)
	}
}

func TestRoadsBuildNonSkewed(t *testing.T) {
	for _, rd := range Roads {
		g := rd.Build(-2)
		if g.NumEdges() == 0 {
			t.Errorf("%s: empty road network", rd.Name)
		}
		if g.MaxDegree() > 8 {
			t.Errorf("%s: max degree %d — road networks are near-uniform", rd.Name, g.MaxDegree())
		}
	}
}

func TestSpecString(t *testing.T) {
	s := Skewed[0].String()
	if s == "" {
		t.Error("empty spec string")
	}
}
