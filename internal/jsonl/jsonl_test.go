package jsonl

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// numberRows are the cursor's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, plus ParseFloat's range:
// want is whether a float list element reads.
var numberRows = []struct {
	num  string
	want bool
}{
	{"0", true},
	{"-0", true},
	{"7", true},
	{"-12", true},
	{"1.5", true},
	{"-0.25", true},
	{"1e5", true},
	{"1E5", true},
	{"1e+5", true},
	{"1e-5", true},
	{"2.5E-3", true},
	{"1e308", true},
	{"1.7976931348623157e308", true},
	{"5e-324", true},
	{"1e-400", true},  // underflow rounds to 0, as ParseFloat does
	{"-1e-400", true}, // … and to -0
	{"1e400", false},  // overflow is ParseFloat's range error
	{"-1e400", false},
	{"1.8e308", false},
	{"01", false},
	{"-01", false},
	{"00", false},
	{"-", false},
	{"+1", false},
	{".5", false},
	{"-.5", false},
	{"1.", false},
	{"1.e5", false},
	{"1e", false},
	{"1e+", false},
	{"1e-", false},
	{"1e+-1", false},
	{"--1", false},
	{"0x10", false},
	{"1_000", false},
	{"Infinity", false},
	{"NaN", false},
	{"", false},
	// Plain numbers at and past the length skipFloat passes unconverted.
	{strings.Repeat("9", maxPlain), true},
	{"-" + strings.Repeat("9", maxPlain-1), true},
	{"0." + strings.Repeat("0", maxPlain) + "1", true},
	{"1" + strings.Repeat("0", 308), true},  // 1e308
	{"2" + strings.Repeat("0", 308), false}, // 2e308
	{strings.Repeat("9", 400), false},
}

// measurementLine puts num as the second element of every list, after a
// 1, so column 0 is converted and column 1 is num.
func measurementLine(num string) []byte {
	l := "[1," + num + "]"
	return []byte(`"name":"n","unfairness":` + l + `,"makespan":` + l + `,"rel":` + l)
}

func TestNumberGrammar(t *testing.T) {
	for _, row := range numberRows {
		parsed, perr := strconv.ParseFloat(row.num, 64)

		c := NewCursor(measurementLine(row.num))
		_, unf, mk, rel := c.Measurement()
		full := c.End()
		if full != row.want {
			t.Errorf("%.40q: Measurement reads %v, want %v", row.num, full, row.want)
		}
		if full && perr != nil {
			t.Errorf("%.40q: Measurement reads what ParseFloat rejects: %v", row.num, perr)
		}
		if full {
			for _, l := range [][]float64{unf, mk, rel} {
				if len(l) != 2 || math.Float64bits(l[1]) != math.Float64bits(parsed) {
					t.Errorf("%.40q: read %v, ParseFloat says %v", row.num, l, parsed)
				}
			}
		}

		// The skip path: column 0 converts the 1, column 1 is skipped …
		c = NewCursor(measurementLine(row.num))
		_, col := c.MeasurementColumn(0)
		if skipped := c.End(); skipped != row.want {
			t.Errorf("%.40q: skipped as column 1, reads %v, want %v", row.num, skipped, row.want)
		} else if skipped && col != [3]float64{1, 1, 1} {
			t.Errorf("%.40q: column 0 reads %v", row.num, col)
		}
		// … and with no column, nothing is converted.
		c = NewCursor(measurementLine(row.num))
		c.MeasurementColumn(-1)
		if skipped := c.End(); skipped != row.want {
			t.Errorf("%.40q: with no column, reads %v, want %v", row.num, skipped, row.want)
		}
		// Converted as the kept column, it agrees too.
		c = NewCursor(measurementLine(row.num))
		_, col = c.MeasurementColumn(1)
		if kept := c.End(); kept != row.want {
			t.Errorf("%.40q: kept as column 1, reads %v, want %v", row.num, kept, row.want)
		} else if kept && math.Float64bits(col[2]) != math.Float64bits(parsed) {
			t.Errorf("%.40q: column 1 reads %v, ParseFloat says %v", row.num, col[2], parsed)
		}
	}
}

func TestMeasurementColumnNeedsTheColumn(t *testing.T) {
	for _, tc := range []struct {
		line string
		k    int
		want bool
	}{
		{`"name":"n","unfairness":[1,2],"makespan":[3,4],"rel":[5,6]`, 1, true},
		{`"name":"n","unfairness":[1,2],"makespan":[3,4],"rel":[5,6]`, 2, false},
		{`"name":"n","unfairness":[1,2],"makespan":[3],"rel":[5,6]`, 1, false},
		{`"name":"n","unfairness":null,"makespan":[3],"rel":[5]`, 0, false},
		{`"name":"n","unfairness":[],"makespan":[3],"rel":[5]`, 0, false},
		// With no column, a short or null list is no mismatch …
		{`"name":"n","unfairness":null,"makespan":[],"rel":[5]`, -1, true},
		// … but the name is still held to the layout.
		{`"name":"\u0041","unfairness":null,"makespan":[],"rel":[5]`, -1, false},
		{`"name":7,"unfairness":null,"makespan":[],"rel":[5]`, -1, false},
	} {
		c := NewCursor([]byte(tc.line))
		name, col := c.MeasurementColumn(tc.k)
		if got := c.End(); got != tc.want {
			t.Errorf("%s, column %d: reads %v, want %v", tc.line, tc.k, got, tc.want)
			continue
		}
		if tc.want && tc.k == 1 && (name != "n" || col != [3]float64{2, 4, 6}) {
			t.Errorf("%s, column 1: got %q %v", tc.line, name, col)
		}
		if tc.k < 0 && name != "" {
			t.Errorf("%s, no column: kept name %q", tc.line, name)
		}
	}
}

func TestCursorOffset(t *testing.T) {
	c := NewCursor([]byte(`{"key":"k","sum":"s"}`))
	c.Lit(`{"key":`)
	if key := c.String(); key != "k" {
		t.Fatalf("key %q", key)
	}
	if got := c.Offset(); got != len(`{"key":"k"`) {
		t.Fatalf("offset %d after the key", got)
	}
}

func TestReadLine(t *testing.T) {
	const size = 256 * 1024
	long := bytes.Repeat([]byte("x"), 2*size+17)
	in := append(append(append([]byte(nil), long...), "\nshort\n"...), "tail"...)
	br := bufio.NewReaderSize(bytes.NewReader(in), size)
	var buf []byte

	line, err := ReadLine(br, &buf)
	if err != nil || !bytes.Equal(line, append(append([]byte(nil), long...), '\n')) {
		t.Fatalf("spanning line: %d bytes, %v", len(line), err)
	}
	if line, err = ReadLine(br, &buf); err != nil || string(line) != "short\n" {
		t.Fatalf("short line: %q, %v", line, err)
	}
	if line, err = ReadLine(br, &buf); err != io.EOF || string(line) != "tail" {
		t.Fatalf("unterminated tail: %q, %v", line, err)
	}
	if line, err = ReadLine(br, &buf); err != io.EOF || len(line) != 0 {
		t.Fatalf("past the end: %q, %v", line, err)
	}

	// An unterminated tail longer than the buffer comes back whole.
	br = bufio.NewReaderSize(bytes.NewReader(long), size)
	if line, err = ReadLine(br, &buf); err != io.EOF || !bytes.Equal(line, long) {
		t.Fatalf("long unterminated tail: %d bytes, %v", len(line), err)
	}
}
