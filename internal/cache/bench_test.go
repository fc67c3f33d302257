package cache

import (
	"testing"

	"ptgsched/internal/scenario"
)

// BenchmarkOpen times Open's verification of the store_warm benchmark's
// cache: its campaign at seed 301 (5,400 points; 6 strategy columns in
// strassen cells, 8 in fft cells), with results shaped like the
// benchmark's (full-precision floats), sealed in one segment.
func BenchmarkOpen(b *testing.B) {
	spec, err := scenario.ParseSpec([]byte(`{"name":"store_warm","seed":301,"reps":150,"nptgs":[2,4,6],` +
		`"families":[{"family":"strassen"},{"family":"fft","k":[2,3]}]}`))
	if err != nil {
		b.Fatal(err)
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	c, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	bound := c.Bind(e)
	seed := uint64(301)
	for i := 0; i < e.NumPoints(); i++ {
		p := e.PointAt(i)
		ns := len(e.Cells[p.Cell].Config.Strategies)
		r := scenario.PointResult{Index: i, Cell: p.Cell, Name: p.Name,
			Unfairness: make([]float64, ns), Makespan: make([]float64, ns), Rel: make([]float64, ns)}
		k := uint64(i)*0x9e3779b97f4a7c15 ^ seed*0xbf58476d1ce4e5b9
		for s := 0; s < ns; s++ {
			k ^= k >> 31
			k *= 0x94d049bb133111eb
			r.Unfairness[s] = float64(k%9973)/9973 + float64(s)*0.01
			r.Makespan[s] = 1000 + float64(k>>20%100003)/97 + float64(s)
			r.Rel[s] = 1 + float64(k>>40%1009)/1009
		}
		bound.Publish(p, r)
	}
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if st := c.Stats(); st.Entries != e.NumPoints() || st.VerifyFailures != 0 {
			b.Fatalf("stats %+v, want %d verified entries", st, e.NumPoints())
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
