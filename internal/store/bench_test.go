package store

import (
	"path/filepath"
	"testing"

	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
)

// warmStore writes the store_warm benchmark's store: its campaign at seed
// 301 (5,400 points; strassen cells carry 6 strategy columns, fft cells
// 8), results shaped like the benchmark's (full-precision floats), across
// 4 segments. It returns the expansion and the store's directory.
func warmStore(b *testing.B) (*scenario.Expansion, string) {
	b.Helper()
	spec, err := scenario.ParseSpec([]byte(`{"name":"store_warm","seed":301,"reps":150,"nptgs":[2,4,6],` +
		`"families":[{"family":"strassen"},{"family":"fft","k":[2,3]}]}`))
	if err != nil {
		b.Fatal(err)
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(b.TempDir(), "store")
	s, err := Create(dir, e, 4)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < e.NumPoints(); i++ {
		p := e.PointAt(i)
		ns := len(e.Cells[p.Cell].Config.Strategies)
		r := scenario.PointResult{Index: i, Cell: p.Cell, Name: p.Name,
			Unfairness: make([]float64, ns), Makespan: make([]float64, ns), Rel: make([]float64, ns)}
		seed := uint64(301)
		k := uint64(i)*0x9e3779b97f4a7c15 ^ seed*0xbf58476d1ce4e5b9
		for c := 0; c < ns; c++ {
			k ^= k >> 31
			k *= 0x94d049bb133111eb
			r.Unfairness[c] = float64(k%9973)/9973 + float64(c)*0.01
			r.Makespan[c] = 1000 + float64(k>>20%100003)/97 + float64(c)
			r.Rel[c] = 1 + float64(k>>40%1009)/1009
		}
		if err := s.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return e, dir
}

// BenchmarkQuery runs store_warm's pushdown query (strassen, projected to
// WPS-work: a third of the points, one column of six) through the index
// and through its full-scan oracle.
func BenchmarkQuery(b *testing.B) {
	e, dir := warmStore(b)
	s, err := OpenRead(dir, e)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	p, err := query.Compile(e, query.Query{Family: "strassen", Strategy: "WPS-work", To: query.NoLimit})
	if err != nil {
		b.Fatal(err)
	}
	for _, path := range []struct {
		name string
		run  func(*query.Plan, func(scenario.PointResult) error) (QueryStats, error)
	}{{"Query", s.Query}, {"QueryFullScan", s.QueryFullScan}} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				if _, err := path.run(p, func(scenario.PointResult) error { n++; return nil }); err != nil {
					b.Fatal(err)
				}
				if n != p.NumSelected() {
					b.Fatalf("%d records, want %d", n, p.NumSelected())
				}
			}
		})
	}
}

// BenchmarkOpen times Open's recovery scan of the same store: every
// record's index, cell and verdict, no float kept.
func BenchmarkOpen(b *testing.B) {
	e, dir := warmStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, e)
		if err != nil {
			b.Fatal(err)
		}
		if got := s.Progress().Completed; got != e.NumPoints() {
			b.Fatalf("recovered %d points, want %d", got, e.NumPoints())
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
