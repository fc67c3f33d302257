package scenario

// Differential coverage for the hand-rolled JSONL encoder: AppendJSONL
// exists only because its bytes are indistinguishable from json.Marshal's,
// so every case here (and the fuzzer) is a byte-level diff of the two.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"
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

// adversarialRecords are the encoder's hard cases: nil vs empty lists,
// extreme indices, every escape class of the name, and floats on both
// sides of each formatting threshold.
func adversarialRecords() []PointResult {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3.0,
		1e-6, 9.999999e-7, 1e-7, 5e-324, // exponent-form threshold and denormal
		1e20, 1e21, 1.0000001e21, math.MaxFloat64,
		-2.5e-9, 123456.789, 1013.0, 2.718281828459045,
	}
	return []PointResult{
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
}

func TestAppendJSONLMatchesEncodingJSON(t *testing.T) {
	for i, r := range adversarialRecords() {
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

// requireSameDecode checks ParseJSONL against json.Unmarshal on one line:
// the same value (nil and empty lists apart, floats bit for bit) and the
// same error text.
func requireSameDecode(t *testing.T, line []byte) {
	t.Helper()
	got, gerr := ParseJSONL(line)
	var want PointResult
	werr := json.Unmarshal(line, &want)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%q: error %v, json.Unmarshal says %v", line, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) || !sameFloatBits(got, want) {
		t.Fatalf("%q:\n got %#v\nwant %#v", line, got, want)
	}
}

// sameFloatBits compares every float of two results bit for bit, which
// reflect.DeepEqual does not (it equates 0 and -0).
func sameFloatBits(a, b PointResult) bool {
	for _, p := range [][2][]float64{{a.Unfairness, b.Unfairness}, {a.Makespan, b.Makespan}, {a.Rel, b.Rel}} {
		if len(p[0]) != len(p[1]) {
			return false
		}
		for i := range p[0] {
			if math.Float64bits(p[0][i]) != math.Float64bits(p[1][i]) {
				return false
			}
		}
	}
	return true
}

// storeWarmRecord is shaped like the records of the store_warm benchmark:
// a real point name and six strategies' worth of full-precision floats.
func storeWarmRecord() PointResult {
	r := PointResult{Index: 4321, Cell: 2, Name: "fft/n=6/rep=119/Lyon",
		Unfairness: make([]float64, 6), Makespan: make([]float64, 6), Rel: make([]float64, 6)}
	k := uint64(0x9e3779b97f4a7c15)
	for s := range r.Unfairness {
		k ^= k >> 31
		k *= 0x94d049bb133111eb
		r.Unfairness[s] = float64(k%9973)/9973 + float64(s)*0.01
		r.Makespan[s] = 1000 + float64(k>>20%100003)/97 + float64(s)
		r.Rel[s] = 1 + float64(k>>40%1009)/1009
	}
	return r
}

// TestParseJSONLRoundTrip reads back every adversarial record bit for
// bit, with and without its newline, and keeps nothing of the line. A
// line whose name needed no escape takes the direct path. (A name that is
// not valid UTF-8 does not survive encoding/json either; that case is
// TestParseJSONLMatchesUnmarshal's.)
func TestParseJSONLRoundTrip(t *testing.T) {
	long := PointResult{Name: "more floats than the stack buffer", Makespan: make([]float64, 100)}
	for i := range long.Makespan {
		long.Makespan[i] = float64(i) / 7
	}
	for i, r := range append(adversarialRecords(), storeWarmRecord(), long) {
		if !utf8.ValidString(r.Name) {
			continue
		}
		line, err := AppendJSONL(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{len(line), len(line) - 1} {
			l := append([]byte(nil), line[:n]...)
			_, direct := parseJSONLDirect(l)
			if want := !bytes.ContainsRune(l, '\\'); direct != want {
				t.Errorf("case %d (%q): direct path %v, want %v", i, l, direct, want)
			}
			got, err := ParseJSONL(l)
			if err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			for j := range l {
				l[j] = 'x' // nothing decoded may alias the line
			}
			if !reflect.DeepEqual(got, r) || !sameFloatBits(got, r) {
				t.Fatalf("case %d:\n got %#v\nwant %#v", i, got, r)
			}
			for _, l := range [][]float64{got.Unfairness, got.Makespan, got.Rel} {
				if cap(l) != len(l) {
					t.Fatalf("case %d: a list of %d has capacity %d; an append would overwrite the next", i, len(l), cap(l))
				}
			}
		}
	}
}

// jsonlMutations are lines outside AppendJSONL's layout that encoding/json
// still reads (or rejects with its own error): reordered and upper-case
// keys, whitespace, escapes, number forms the encoder never writes, and
// trailing junk.
var jsonlMutations = []string{
	`{"cell":1,"index":3,"name":"a","unfairness":null,"makespan":null,"rel":null}`,
	`{"INDEX":3,"Cell":1,"name":"a","unfairness":null,"makespan":null,"rel":null}`,
	`{"index":3, "cell":1,"name":"a","unfairness":[1, 2],"makespan":null,"rel":null}`,
	` {"index":3,"cell":1,"name":"a","unfairness":null,"makespan":null,"rel":null}` + "\r\n",
	`{"index":3,"cell":1,"name":"a\u00e9\n","unfairness":null,"makespan":null,"rel":null}`,
	`{"index":3,"cell":1,"name":"a","unfairness":[1E5,1e+5,-0,0.5e-3],"makespan":[-0.0],"rel":[]}`,
	`{"index":-0,"cell":01,"name":"a","unfairness":null,"makespan":null,"rel":null}`,
	`{"index":3,"cell":1,"name":"a","unfairness":[01],"makespan":null,"rel":null}`,
	`{"index":3,"cell":1,"name":"a","unfairness":[1e400],"makespan":[2],"rel":[3]}`,
	`{"index":3,"cell":1,"name":"a","unfairness":[1e-400],"makespan":null,"rel":null}`,
	`{"index":3.5,"cell":1,"name":"a","unfairness":[1],"makespan":null,"rel":null}`,
	`{"index":1e2,"cell":1,"name":"a","unfairness":[1],"makespan":null,"rel":null}`,
	`{"index":99999999999999999999,"cell":1,"name":"a","unfairness":null,"makespan":null,"rel":null}`,
	`{"index":3,"cell":1,"name":"a","unfairness":[1.],"makespan":null,"rel":null}`,
	`{"index":3,"cell":1,"name":"a","unfairness":[.5],"makespan":null,"rel":null}`,
	`{"index":3,"cell":1,"name":"a","unfairness":[1,],"makespan":null,"rel":null}`,
	`{"index":3,"cell":1,"name":"a","unfairness":null,"makespan":null,"rel":null}junk`,
	`{"index":3,"cell":1,"name":"a","unfairness":null,"makespan":null,"rel":null}` + "\n\n",
	`{"index":3,"cell":1,"name":"a","unfairness":null,"makespan":null,"rel":null,"extra":true}`,
	`{"index":3,"cell":1,"name":"a","unfairness":null,"makespan":null,"rel":null,"index":4}`,
	`{"index":3,"cell":1,"name":null,"unfairness":"x","makespan":null,"rel":null}`,
	`{"index":3,"cell":1,"name":"a","unfairness":null,"makespan":null,"rel":null`,
	`{"index":3,"cell":1,"name":"a\"b","unfairness":null,"makespan":null,"rel":null}`,
	`null`, `[]`, ``, `{}`, "{\"index\":3,\"cell\":1,\"name\":\"\xff\",\"unfairness\":null,\"makespan\":null,\"rel\":null}",
}

func TestParseJSONLMatchesUnmarshal(t *testing.T) {
	for _, r := range adversarialRecords() {
		line, err := AppendJSONL(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDecode(t, line)
		requireSameDecode(t, line[:len(line)/2])
	}
	for _, m := range jsonlMutations {
		requireSameDecode(t, []byte(m))
	}
}

// FuzzParseJSONLMatchesUnmarshal: for any bytes, ParseJSONL returns what
// json.Unmarshal returns — value, float bits, nil-ness and error text —
// and never panics.
func FuzzParseJSONLMatchesUnmarshal(f *testing.F) {
	for _, r := range append(adversarialRecords(), storeWarmRecord()) {
		line, err := AppendJSONL(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	for _, m := range jsonlMutations {
		f.Add([]byte(m))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		requireSameDecode(t, line)
	})
}

// BenchmarkParseJSONL reads one store_warm-shaped record through the
// decoder and, beside it, through json.Unmarshal.
func BenchmarkParseJSONL(b *testing.B) {
	line, err := AppendJSONL(nil, storeWarmRecord())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ParseJSONL", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseJSONL(line); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r PointResult
			if err := json.Unmarshal(line, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
