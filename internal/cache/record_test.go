package cache

// Differential coverage for the record codec: parseRecord exists only
// because it decodes what json.Unmarshal decodes, and appendRecord only
// because it writes what json.Marshal writes (the body's bytes are what a
// record's sum hashes, so one byte of difference fails every chain).

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// requireRecordCodec checks both directions on one line: the decode
// against json.Unmarshal (value, float bits, error text) and, where the
// line decodes, the line and body encodes against json.Marshal.
func requireRecordCodec(t *testing.T, line []byte) {
	t.Helper()
	got, _, gerr := parseRecord(line)
	var want record
	werr := json.Unmarshal(line, &want)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%q: error %v, json.Unmarshal says %v", line, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) || !sameRecordBits(got, want) {
		t.Fatalf("%q:\n got %#v\nwant %#v", line, got, want)
	}
	if werr != nil {
		return
	}
	body := want
	body.Sum, body.Proof = "", ""
	for _, rec := range []record{want, body} {
		enc, err := appendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("encoders diverge:\n got %s\nwant %s", enc, ref)
		}
	}
}

func sameRecordBits(a, b record) bool {
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

const (
	hexA = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
	hexB = "ffeeddccbbaa99887766554433221100ffeeddccbbaa99887766554433221100"
)

// recordLines are put-shaped lines and mutations of them: other key
// orders and cases, omitted or empty sum and proof, whitespace, escapes,
// number forms put never writes, and trailing junk.
var recordLines = []string{
	`{"key":"` + hexA + `","name":"strassen/n=2/rep=0/lille","unfairness":[0.25,1e-7],"makespan":[1013,2.5],"rel":[1,1.5],"sum":"` + hexB + `","proof":"` + hexA + `"}`,
	`{"key":"` + hexA + `","name":"x","unfairness":null,"makespan":[],"rel":[-0],"sum":"` + hexB + `","proof":"` + hexA + `"}` + "\n",
	`{"key":"` + hexA + `","name":"x","unfairness":null,"makespan":null,"rel":null}`,
	`{"key":"` + hexA + `","name":"x","unfairness":null,"makespan":null,"rel":null,"sum":"","proof":""}`,
	`{"name":"x","key":"` + hexA + `","unfairness":null,"makespan":null,"rel":null,"sum":"a","proof":"b"}`,
	`{"KEY":"k","name":"x","unfairness":null,"makespan":null,"rel":null,"sum":"a","proof":"b"}`,
	`{"key":"k", "name":"x","unfairness":[1E5],"makespan":null,"rel":null,"sum":"a","proof":"b"}`,
	`{"key":"k","name":"\u003cx\u003e","unfairness":[01],"makespan":null,"rel":null,"sum":"a","proof":"b"}`,
	`{"key":"k","name":"x","unfairness":[1e400],"makespan":null,"rel":null,"sum":"a","proof":"b"}`,
	`{"key":"k","name":"x","unfairness":null,"makespan":null,"rel":null,"sum":"a","proof":"b"}junk`,
	`{"key":"k","name":"x","unfairness":null,"makespan":null,"rel":null,"sum":"a","proof":"b"`,
	`{"key":1,"name":"x","unfairness":null,"makespan":null,"rel":null,"sum":"a","proof":"b"}`,
	`null`, ``, `{}`,
}

func TestRecordCodecMatchesEncodingJSON(t *testing.T) {
	for _, l := range recordLines {
		requireRecordCodec(t, []byte(l))
	}
	if _, body := parseRecordDirect([]byte(recordLines[0])); body < 0 {
		t.Error("a put-shaped line missed the direct path")
	}
}

// FuzzCacheRecordMatchesEncodingJSON: for any line, parseRecord returns
// what json.Unmarshal returns and never panics; for any record built from
// the fuzzed name and float bits, appendRecord writes what json.Marshal
// writes and parseRecord reads it back as json.Unmarshal does.
func FuzzCacheRecordMatchesEncodingJSON(f *testing.F) {
	for _, l := range recordLines {
		f.Add([]byte(l), "strassen/n=2/rep=0/lille", uint64(0x3ff0000000000000))
	}
	f.Add([]byte(`{}`), "π <&> \x01 \xff", uint64(0x0000000000000001))
	f.Fuzz(func(t *testing.T, line []byte, name string, bits uint64) {
		requireRecordCodec(t, line)
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		rec := record{Key: hexA, Name: name, Unfairness: []float64{v}, Makespan: []float64{}, Sum: hexB, Proof: name}
		enc, err := appendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		requireRecordCodec(t, enc)
	})
}
