package main

import (
	"encoding/binary"
	"hash"
	"math"
	"sort"
)

// fnv64 is an allocation-free FNV-1a accumulator. The per-record hashes of
// a pass are taken inside the timed region, so they must cost next to
// nothing beside the record itself.
type fnv64 uint64

const fnvOffset fnv64 = 14695981039346656037

func (h *fnv64) bytes(b []byte) {
	for _, c := range b {
		*h = (*h ^ fnv64(c)) * 1099511628211
	}
}

func (h *fnv64) word(x uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ fnv64(x&0xff)) * 1099511628211
		x >>= 8
	}
}

func (h *fnv64) floats(xs []float64) {
	for _, x := range xs {
		h.word(math.Float64bits(x))
	}
}

// hashWord and hashFloats feed a digest without going through
// binary.Write's reflection.
func hashWord(h hash.Hash, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}

func hashFloats(h hash.Hash, xs []float64) {
	for _, x := range xs {
		hashWord(h, math.Float64bits(x))
	}
}

// summary is the order statistics of one metric's per-pass (or per-run)
// values. Quartiles follow Python's statistics.quantiles(values, n=4),
// the rule the acceptance protocol uses, so spreads computed here and
// there agree.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func summarize(values []float64) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s := summary{N: len(v)}
	if len(v) == 0 {
		return s
	}
	s.Min, s.Max = v[0], v[len(v)-1]
	if len(v) == 1 {
		s.Median, s.Q1, s.Q3 = v[0], v[0], v[0]
		return s
	}
	s.Median = quantile(v, 2)
	s.Q1 = quantile(v, 1)
	s.Q3 = quantile(v, 3)
	return s
}

// quantile returns the i-th quartile cut of sorted v (len ≥ 2) by the
// exclusive method: position i·(n+1)/4, linearly interpolated, clamped
// to the data.
func quantile(v []float64, i int) float64 {
	const n = 4
	m := len(v) + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > len(v)-1 {
		j = len(v) - 1
	}
	delta := float64(i*m - j*n)
	return (v[j-1]*(n-delta) + v[j]*delta) / n
}

func median(values []float64) float64 { return summarize(values).Median }

// percentile returns the p-th percentile (0 < p < 100) of values by the
// nearest-rank rule: the smallest value with at least p% of the samples
// at or below it.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	rank := int(math.Ceil(p / 100 * float64(len(v))))
	if rank < 1 {
		rank = 1
	}
	return v[rank-1]
}
