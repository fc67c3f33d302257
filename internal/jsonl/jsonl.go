// Package jsonl holds the canonical forms of the campaign record format —
// the string and float encodings encoding/json produces — and a cursor
// that reads back exactly those forms. The record codecs (scenario's
// PointResult, the cache's record and key identity) are built on it: they
// append through AppendString, AppendFloat and AppendMeasurement, parse
// through a Cursor, and hand every line the cursor rejects to
// encoding/json, so their decoders agree with json.Unmarshal on every
// input and their encoders with json.Marshal.
package jsonl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendString writes s as a JSON string. The fast path covers the
// characters record strings are actually made of — printable ASCII minus
// the characters encoding/json escapes ('"', '\\', and the HTML-safety set
// '<', '>', '&'); anything else falls back to json.Marshal so the escape
// forms (\u003c for '<', the U+FFFD replacement for invalid UTF-8, …)
// stay byte-identical.
func AppendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// appendFloats writes a float slice, with encoding/json's nil-slice
// convention (null) preserved.
func appendFloats(buf []byte, s []float64) ([]byte, error) {
	if s == nil {
		return append(buf, `null`...), nil
	}
	buf = append(buf, '[')
	var err error
	for i, f := range s {
		if i > 0 {
			buf = append(buf, ',')
		}
		if buf, err = AppendFloat(buf, f); err != nil {
			return buf, err
		}
	}
	return append(buf, ']'), nil
}

// AppendFloat replicates encoding/json's float64 encoding exactly:
// shortest round-trip form, 'f' format unless the magnitude calls for
// exponent form ('e' below 1e-6 or at/above 1e21), with the exponent's
// leading zero trimmed ("2e-09" → "2e-9"). A non-finite value is an
// error, as it is for json.Marshal.
func AppendFloat(buf []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return buf, fmt.Errorf("jsonl: unsupported non-finite value %v", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf, nil
}

// measurementKeys introduce the float lists of both record layouts.
var measurementKeys = [3]string{`,"unfairness":`, `,"makespan":`, `,"rel":`}

// AppendMeasurement appends the fields both record layouts share, in
// their order: `"name":…,"unfairness":…,"makespan":…,"rel":…`.
func AppendMeasurement(buf []byte, name string, unfairness, makespan, rel []float64) ([]byte, error) {
	buf = AppendString(append(buf, `"name":`...), name)
	var err error
	for i, l := range [3][]float64{unfairness, makespan, rel} {
		if buf, err = appendFloats(append(buf, measurementKeys[i]...), l); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Cursor reads one line in a record codec's exact layout: literals in
// their order, no whitespace, strings of printable ASCII without escapes,
// numbers held to JSON's grammar. The first mismatch sticks (later reads
// return zero values) and End reports it, so a codec reads its whole
// layout and decides once. Nothing read retains the line.
type Cursor struct {
	b   []byte
	i   int
	bad bool
}

// NewCursor starts a cursor at the beginning of line.
func NewCursor(line []byte) Cursor { return Cursor{b: line} }

// End reports whether every read matched and only an optional trailing
// newline is left.
func (c *Cursor) End() bool {
	c.skip("\n")
	return !c.bad && c.i == len(c.b)
}

// skip consumes lit if it comes next.
func (c *Cursor) skip(lit string) bool {
	if c.bad || len(c.b)-c.i < len(lit) || string(c.b[c.i:c.i+len(lit)]) != lit {
		return false
	}
	c.i += len(lit)
	return true
}

// Lit consumes lit, which must come next.
func (c *Cursor) Lit(lit string) {
	if !c.skip(lit) {
		c.bad = true
	}
}

// Int reads an integer that fits an int, converted by strconv.ParseInt
// as encoding/json converts one.
func (c *Cursor) Int() int {
	num, integer := c.number()
	n, err := strconv.ParseInt(string(num), 10, 0)
	if !integer || err != nil {
		c.bad = true
		return 0
	}
	return int(n)
}

// String reads a string of printable ASCII without escapes.
func (c *Cursor) String() string {
	if !c.skip(`"`) {
		c.bad = true
		return ""
	}
	for j := c.i; j < len(c.b) && c.b[j] >= 0x20 && c.b[j] <= 0x7e && c.b[j] != '\\'; j++ {
		if c.b[j] == '"' {
			s := string(c.b[c.i:j])
			c.i = j + 1
			return s
		}
	}
	c.bad = true
	return ""
}

// Measurement reads what AppendMeasurement writes. The three lists are
// cut, capacity-limited, from one allocation: nil for null and non-nil
// for `[]`, as encoding/json decodes them.
func (c *Cursor) Measurement() (name string, unfairness, makespan, rel []float64) {
	c.Lit(`"name":`)
	name = c.String()
	var stack [48]float64
	var ends [3]int
	nums := stack[:0]
	for i, key := range measurementKeys {
		c.Lit(key)
		if nums, ends[i] = c.floats(nums); c.bad {
			return "", nil, nil, nil
		}
	}
	all := append(make([]float64, 0, len(nums)), nums...)
	lists, lo := [3][]float64{}, 0
	for i, end := range ends {
		if end >= 0 {
			lists[i], lo = all[lo:end:end], end
		}
	}
	return name, lists[0], lists[1], lists[2]
}

// floats reads a float list, `null` or `[n,…]`, appending its numbers to
// nums, each converted by strconv.ParseFloat(s, 64) as encoding/json
// converts one (a range error is a mismatch). It returns where the list
// ends in nums, or -1 for null.
func (c *Cursor) floats(nums []float64) ([]float64, int) {
	if c.skip("null") {
		return nums, -1
	}
	c.Lit("[")
	if c.skip("]") {
		return nums, len(nums)
	}
	for !c.bad {
		num, _ := c.number()
		f, err := strconv.ParseFloat(string(num), 64)
		if c.bad || err != nil {
			c.bad = true
			break
		}
		nums = append(nums, f)
		if !c.skip(",") {
			c.Lit("]")
			break
		}
	}
	return nums, len(nums)
}

// number scans a number of JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether it
// is an integer (no fraction, no exponent).
func (c *Cursor) number() (num []byte, integer bool) {
	if c.bad {
		return nil, false
	}
	b, i, ok := c.b, c.i, true
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		i, ok = digits(b, i)
	}
	integer = true
	if ok && i < len(b) && b[i] == '.' {
		integer = false
		i, ok = digits(b, i+1)
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i, integer = i+1, false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i, ok = digits(b, i)
	}
	if !ok {
		c.bad = true
		return nil, false
	}
	num, c.i = b[c.i:i], i
	return num, integer
}

// digits returns the index past the run of decimal digits at i, and
// whether the run is not empty.
func digits(b []byte, i int) (int, bool) {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	return j, j > i
}

// ReadLine returns the next line of br through its '\n' (or the
// unterminated tail, with io.EOF) like ReadBytes, but copies it only
// when it outgrows br's buffer, collecting the fragments in *long. The
// line is valid until the next read from br.
func ReadLine(br *bufio.Reader, long *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	*long = append((*long)[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = br.ReadSlice('\n')
		*long = append(*long, line...)
	}
	return *long, err
}
