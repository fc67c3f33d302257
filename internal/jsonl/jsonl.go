// Package jsonl holds the canonical forms of the campaign record format —
// the string and float encodings encoding/json produces — and a cursor
// that reads back exactly those forms. The cursor gives every number the
// value and verdict of strconv.ParseFloat(s, 64), computed by its exact
// paths (atof.go), with ParseFloat as their fallback. The record codecs
// (scenario's PointResult, the cache's record and key identity) are built
// on it: they append through AppendString, AppendFloat and
// AppendMeasurement, parse through a Cursor, and hand every line the
// cursor rejects to encoding/json, so their decoders agree with
// json.Unmarshal on every input and their encoders with json.Marshal.
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

// skip consumes lit if it comes next. Cut to len(lit), the line compares
// to a short constant lit in one load instead of a call.
func (c *Cursor) skip(lit string) bool {
	if c.bad || len(c.b)-c.i < len(lit) || string(c.b[c.i:][:len(lit)]) != lit {
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
	d := c.number()
	n, err := strconv.ParseInt(string(c.b[c.i-d.n:c.i]), 10, 0)
	if d.frac || d.exp || err != nil {
		c.bad = true
		return 0
	}
	return int(n)
}

// String reads a string of printable ASCII without escapes.
func (c *Cursor) String() string { return string(c.stringBytes()) }

// stringBytes reads what String reads and returns it as a view of the
// line, nil on a mismatch.
func (c *Cursor) stringBytes() []byte {
	if !c.skip(`"`) {
		c.bad = true
		return nil
	}
	for j := c.i; j < len(c.b) && c.b[j] >= 0x20 && c.b[j] <= 0x7e && c.b[j] != '\\'; j++ {
		if c.b[j] == '"' {
			s := c.b[c.i:j]
			c.i = j + 1
			return s
		}
	}
	c.bad = true
	return nil
}

// Offset returns how many bytes of the line the cursor has read.
func (c *Cursor) Offset() int { return c.i }

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

// MeasurementColumn reads what AppendMeasurement writes, holding every
// number to Measurement's checks, but converts only column k of each list
// and returns those three values. A list without column k (null, or too
// short) is a mismatch. With k < 0 it converts no number and keeps no
// name: the line's verdict is all it reads.
func (c *Cursor) MeasurementColumn(k int) (name string, col [3]float64) {
	c.Lit(`"name":`)
	if k < 0 {
		c.stringBytes()
	} else {
		name = c.String()
	}
	for i, key := range measurementKeys {
		c.Lit(key)
		var found bool
		if col[i], found = c.column(k); k >= 0 && !found {
			c.bad = true
		}
	}
	if c.bad {
		return "", [3]float64{}
	}
	return name, col
}

// floats reads a float list, `null` or `[n,…]`, appending its numbers to
// nums, each converted by float (a range error is a mismatch). It returns
// where the list ends in nums, or -1 for null.
func (c *Cursor) floats(nums []float64) ([]float64, int) {
	if c.skip("null") {
		return nums, -1
	}
	c.Lit("[")
	if c.skip("]") {
		return nums, len(nums)
	}
	for !c.bad {
		f := c.float(c.number())
		if c.bad {
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

// column reads a float list as floats does but converts only its number
// at position k (none for k < 0); found reports whether there is one.
// Every other number is held to the same grammar and range by skipFloat.
func (c *Cursor) column(k int) (f float64, found bool) {
	if c.skip("null") {
		return 0, false
	}
	c.Lit("[")
	if c.skip("]") {
		return 0, false
	}
	for j := 0; !c.bad; j++ {
		if d := c.number(); j == k {
			f, found = c.float(d), true
		} else {
			c.skipFloat(d)
		}
		if !c.skip(",") {
			c.Lit("]")
			break
		}
	}
	return f, found
}

// float converts d, the number just read, to the value and verdict of
// strconv.ParseFloat(s, 64), as encoding/json converts a number: computed
// by d's exact paths (atof.go), with ParseFloat as their fallback. A
// syntax or range error is a mismatch.
func (c *Cursor) float(d decimal) float64 {
	if f, ok := d.exact(); ok {
		return f
	}
	f, err := parseFloat(string(c.b[c.i-d.n:c.i]), 64)
	if err != nil {
		c.bad = true
	}
	return f
}

// parseFloat is float's fallback (a variable so a test can count calls).
var parseFloat = strconv.ParseFloat

// maxPlain is the longest number skipFloat passes without converting it.
const maxPlain = 300

// skipFloat gives d, the number just read, float's verdict without
// converting it where it can. A number of JSON's grammar with no exponent
// and at most maxPlain characters is below 1e300 in magnitude, and a
// plain decimal never fails by underflow (ParseFloat rounds it to zero),
// so float can only reject a number with an exponent or a longer one
// (1e400): those it converts.
func (c *Cursor) skipFloat(d decimal) {
	if d.exp || d.n > maxPlain {
		c.float(d)
	}
}

// number scans a number of JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reads its decimal in
// the same pass, as strconv's readFloat does: leading zeros of a fraction
// move the point, and the exponent stops growing at maxExp.
func (c *Cursor) number() (d decimal) {
	if c.bad {
		return d
	}
	b, i := c.b, c.i
	if i < len(b) && b[i] == '-' {
		d.neg, i = true, i+1
	}
	start, dp := i, 0 // dp: the point's place, in significant digits
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		i, d.man = fold(b, i, 0)
		dp = i - start
	}
	ok, nd := i > start, dp // nd: significant digits
	if ok && i < len(b) && b[i] == '.' {
		d.frac, i, start = true, i+1, i+1
		for d.man == 0 && i < len(b) && b[i] == '0' {
			i, dp = i+1, dp-1
		}
		j := i
		i, d.man = fold(b, i, d.man)
		ok, nd = i > start, nd+i-j
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		d.exp, i = true, i+1
		sign, e := 1, 0
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				sign = -1
			}
			i++
		}
		for start = i; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < maxExp {
				e = e*10 + int(b[i]-'0')
			}
		}
		ok, dp = i > start, dp+sign*e
	}
	if !ok {
		c.bad = true
		return decimal{}
	}
	if d.long = nd > 19; d.man != 0 {
		d.exp10 = dp - nd
	}
	d.n, c.i = i-c.i, i
	return d
}

// fold returns the index past the run of decimal digits at i, and man
// with the run's digits appended (modulo 2^64).
func fold(b []byte, i int, man uint64) (int, uint64) {
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		man = man*10 + uint64(d)
	}
	return i, man
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
