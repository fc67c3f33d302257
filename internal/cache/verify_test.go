package cache

// verifyRecord's hash fields and its two ways to a record's sum: the
// line's own body, hashed as it lies, and the re-encoded body, for lines
// whose bytes are not the canonical ones put hashed.

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// damageField rewrites record r's key, sum or proof field through edit,
// and drops the seal so that the record is the segment's only failure.
func damageField(t *testing.T, seg string, r int, field string, edit func(string) string) {
	t.Helper()
	lines := readLines(t, seg)
	var rec record
	if err := json.Unmarshal([]byte(lines[r+1]), &rec); err != nil {
		t.Fatal(err)
	}
	switch field {
	case "key":
		rec.Key = edit(rec.Key)
	case "sum":
		rec.Sum = edit(rec.Sum)
	case "proof":
		rec.Proof = edit(rec.Proof)
	}
	b, err := appendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	lines[r+1] = string(b)
	writeLines(t, seg, lines)
	if err := os.Remove(seg + headSuffix); err != nil {
		t.Fatal(err)
	}
}

func TestMalformedHashFieldsAreCorrupt(t *testing.T) {
	for _, field := range []string{"key", "sum", "proof"} {
		for _, d := range []struct {
			name string
			edit func(string) string
		}{
			{"odd length", func(s string) string { return s[:len(s)-1] }},
			{"bad digit", func(s string) string { return "g" + s[1:] }},
			{"short", func(s string) string { return s[:len(s)-2] }},
			{"long", func(s string) string { return s + "00" }},
		} {
			t.Run(field+"/"+d.name, func(t *testing.T) {
				_, _, dir := buildSealed(t)
				damageField(t, oneSegment(t, dir), 2, field, d.edit)
				c := open(t, dir)
				defer c.Close()
				errs := c.VerifyErrors()
				if len(errs) != 1 || errs[0].Class != ClassCorrupt || errs[0].Record != 2 ||
					errs[0].Detail != "malformed key/sum/proof field" {
					t.Fatalf("verify errors %v, want one ClassCorrupt \"malformed key/sum/proof field\" at record 2", errs)
				}
				if got := c.Stats().Entries; got != 2 {
					t.Fatalf("entries=%d, want 2 (records before the damage)", got)
				}
			})
		}
	}
}

func TestDecodeHash(t *testing.T) {
	for _, tc := range []struct {
		s  string
		ok bool
	}{
		{hexA, true},
		{strings.ToUpper(hexA), true},
		{hexA[:63], false},
		{hexA[:62], false},
		{hexA + "00", false},
		{"", false},
		{"zz" + hexA[2:], false},
	} {
		h, ok := decodeHash(tc.s)
		if ok != tc.ok {
			t.Errorf("%q: ok %v, want %v", tc.s, ok, tc.ok)
		}
		if !ok && h != [32]byte{} {
			t.Errorf("%q: rejected, but the hash is not zero", tc.s)
		}
	}
}

// TestNonCanonicalNumbersStillVerify rewrites every record's numbers in
// forms put never writes but that decode to the same values: the line's
// own body then misses its sum, and the re-encoded body must still
// verify, as it did before the raw-body hash existed.
func TestNonCanonicalNumbersStillVerify(t *testing.T) {
	e, want, dir := buildSealed(t)
	seg := oneSegment(t, dir)
	lines := readLines(t, seg)
	for i := 1; i < len(lines); i++ {
		l := []byte(lines[i])
		k := bytes.Index(l, []byte(`"makespan":[`)) + len(`"makespan":[`)
		end := k + bytes.IndexAny(l[k:], ",]")
		lines[i] = string(l[:end]) + "e0" + string(l[end:])
		if _, body, err := parseRecord([]byte(lines[i])); err != nil || body < 0 {
			t.Fatalf("%s: direct path %d, %v", lines[i], body, err)
		}
	}
	writeLines(t, seg, lines)

	c := open(t, dir)
	if st := c.Stats(); st.VerifyFailures != 0 || st.Entries != len(lines)-1 {
		t.Fatalf("stats %+v: a non-canonical but equal record failed to verify (%v)", st, c.VerifyErrors())
	}
	assertFallback(t, c, e, want)
}
