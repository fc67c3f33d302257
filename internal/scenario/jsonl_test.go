package scenario

// Differential coverage for the hand-rolled JSONL encoder: AppendJSONL
// exists only because its bytes are indistinguishable from json.Marshal's,
// so every case here (and the fuzzer) is a byte-level diff of the two.

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// marshalLine is the reference encoding: json.Marshal plus the newline
// the JSONL format appends per record.
func marshalLine(t *testing.T, r PointResult) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestAppendJSONLMatchesEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3.0,
		1e-6, 9.999999e-7, 1e-7, 5e-324, // exponent-form threshold and denormal
		1e20, 1e21, 1.0000001e21, math.MaxFloat64,
		-2.5e-9, 123456.789, 1013.0, 2.718281828459045,
	}
	cases := []PointResult{
		{}, // zero value: nil slices must encode as null
		{Index: 3, Cell: 1, Name: "strassen/n=2/rep=0/lille",
			Unfairness: []float64{}, Makespan: []float64{}, Rel: []float64{}},
		{Index: -7, Cell: -1, Name: "negative indices still encode"},
		{Index: math.MaxInt, Name: "big index"}, // the widest int of the host, 32-bit ones included
		{Name: `quotes " and \ backslash`},
		{Name: "html <escapes> & ampersand"},
		{Name: "control \x00\x1f chars"},
		{Name: "unicode π µ — and invalid \xff\xfe bytes"},
		{Name: "line\u2028sep\u2029"},
		{Index: 42, Cell: 2, Name: "floats", Unfairness: floats,
			Makespan: floats[:4], Rel: floats[4:]},
	}
	for i, r := range cases {
		got, err := AppendJSONL(nil, r)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if want := marshalLine(t, r); !bytes.Equal(got, want) {
			t.Errorf("case %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

func TestAppendJSONLBufferReuse(t *testing.T) {
	a := PointResult{Index: 1, Name: "a", Makespan: []float64{1.5}}
	b := PointResult{Index: 2, Name: "bb", Rel: []float64{2.25, 1e-9}}
	buf, err := AppendJSONL(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	buf, err = AppendJSONL(buf, b) // append, not reset: both records in one buffer
	if err != nil {
		t.Fatal(err)
	}
	want := append(marshalLine(t, a), marshalLine(t, b)...)
	if !bytes.Equal(buf, want) {
		t.Fatalf("concatenated records differ:\n got %s\nwant %s", buf, want)
	}
}

func TestAppendJSONLRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendJSONL(nil, PointResult{Makespan: []float64{v}}); err == nil {
			t.Errorf("value %v accepted; json.Marshal rejects it", v)
		}
	}
}

// FuzzAppendJSONL diffs the two encoders over arbitrary float bit patterns
// and names — the float formatting thresholds and the string fast path are
// exactly the places a byte-level divergence could hide.
func FuzzAppendJSONL(f *testing.F) {
	f.Add(0, "strassen/n=2/rep=0/lille", uint64(0x3ff0000000000000), uint64(0))
	f.Add(-1, "π <&> \x01", uint64(0x0000000000000001), uint64(0x7fefffffffffffff))
	f.Add(1<<30, "", uint64(0x3eb0c6f7a0b5ed8d), uint64(0x44b52d02c7e14af6)) // ~1e-6, ~1e22
	f.Fuzz(func(t *testing.T, idx int, name string, bits1, bits2 uint64) {
		v1, v2 := math.Float64frombits(bits1), math.Float64frombits(bits2)
		if math.IsNaN(v1) || math.IsInf(v1, 0) || math.IsNaN(v2) || math.IsInf(v2, 0) {
			return
		}
		r := PointResult{
			Index: idx, Cell: idx / 2, Name: name,
			Unfairness: []float64{v1, v2}, Makespan: []float64{v2}, Rel: nil,
		}
		got, err := AppendJSONL(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("encoders diverge:\n got %s\nwant %s\n", got, want)
		}
	})
}
