package dag

import "testing"

func TestComputeStatsDiamond(t *testing.T) {
	g, _, _, _, _ := diamond(t, 8e6)
	s := g.ComputeStats()
	if s.Tasks != 4 || s.Edges != 4 || s.Depth != 3 || s.MaxWidth != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.TotalWorkG != 7 {
		t.Errorf("total work = %g", s.TotalWorkG)
	}
	if s.TotalBytes != 32e6 {
		t.Errorf("total bytes = %g", s.TotalBytes)
	}
	if s.CPWorkG != 5 { // a(1) + c(3) + d(1)
		t.Errorf("cp work = %g", s.CPWorkG)
	}
	if s.SerialFraction != 5.0/7.0 {
		t.Errorf("serial fraction = %g", s.SerialFraction)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}
