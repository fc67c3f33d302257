package jsonl

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// plainNumber is the length of the number of JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, at the start of b, 0 if
// there is none: the cursor's scan as it was before it read digits'
// values, kept as its reference.
func plainNumber(b []byte) int {
	digits := func(i int) (int, bool) {
		j := i
		for j < len(b) && '0' <= b[j] && b[j] <= '9' {
			j++
		}
		return j, j > i
	}
	i, ok := 0, true
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		i, ok = digits(i)
	}
	if ok && i < len(b) && b[i] == '.' {
		i, ok = digits(i + 1)
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i, ok = digits(i)
	}
	if !ok {
		return 0
	}
	return i
}

// checkFloat holds the cursor's reading of in, number then float, to
// plainNumber followed by strconv.ParseFloat(s, 64): the same verdict,
// consumed length and float bits.
func checkFloat(t testing.TB, in []byte) {
	t.Helper()
	c := NewCursor(in)
	got := c.float(c.number())
	n := plainNumber(in)
	if n == 0 {
		if !c.bad {
			t.Fatalf("%.60q: float reads what the grammar rejects", in)
		}
		return
	}
	want, err := strconv.ParseFloat(string(in[:n]), 64)
	if c.bad != (err != nil) {
		t.Fatalf("%.60q: float mismatch %v, ParseFloat error %v", in, c.bad, err)
	}
	if err == nil && (c.Offset() != n || math.Float64bits(got) != math.Float64bits(want)) {
		t.Fatalf("%.60q: float reads %v (%#x) from %d bytes, ParseFloat %v (%#x) from %d",
			in, got, math.Float64bits(got), c.Offset(), want, math.Float64bits(want), n)
	}
}

// floatCases are the edges of the exact paths and of float64 itself.
var floatCases = []string{
	"9007199254740993",                                   // 2^53+1: past Clinger, Eisel–Lemire rounds it
	"2.2250738585072011e-308", "2.2250738585072014e-308", // subnormal / smallest normal
	"4.9e-324", "2.4703282292062327e-324", // smallest subnormal, and below half of it
	"1.7976931348623157e308", "1.7976931348623159e308", // max float64, and a range error
	"-0", "0e99999999999", "1e99999999999", "-1e-99999999999",
	"1e18446744073709551621", "1e4294967301", // exponents that wrap to 5 uncapped
	"0." + strings.Repeat("0", 30) + "1",
	"84431984174676.5", // Eisel–Lemire's halfway ambiguity, which Clinger decides
	"1e22", "1e23", "9007199254740992e22", "9007199254740992e-22",
	"12345678901234567890", "1234567890123456789012e-30", "0.1234567890123456789012",
	strings.Repeat("9", 400), "0." + strings.Repeat("0", 400) + "1",
	"1.", "-", "01", "1e", "1.e5", ".5", "1e+", "0x10", "",
}

// mantissaOf returns a seeded digit string of n digits, its first nonzero.
func mantissaOf(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + r.Intn(10))
	}
	b[0] = byte('1' + r.Intn(9))
	return string(b)
}

func TestFloatMatchesParseFloat(t *testing.T) {
	for _, s := range floatCases {
		checkFloat(t, []byte(s))
		checkFloat(t, []byte("-"+s))
	}
	r := rand.New(rand.NewSource(1))
	for exp10 := minExp10; exp10 <= maxExp10; exp10++ {
		for _, nd := range []int{1, 16, 17, 19, 20, 21 + r.Intn(20)} {
			m := mantissaOf(r, nd)
			point := r.Intn(nd) + 1 // digits before the point
			for _, s := range []string{
				m + "e" + strconv.Itoa(exp10),
				"-" + m[:point] + "." + m[point:] + "0e" + strconv.Itoa(exp10-point+nd),
				"0.000" + m + "E+" + strconv.Itoa(exp10+nd+3),
			} {
				checkFloat(t, []byte(s))
			}
		}
	}
}

func FuzzCursorFloatMatchesParseFloat(f *testing.F) {
	for _, s := range floatCases {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) { checkFloat(t, in) })
}

func TestPowersTable(t *testing.T) {
	for q := minExp10; q <= maxExp10; q++ {
		if powers[q-minExp10][1]>>63 != 1 {
			t.Errorf("1e%d: high word %#x lacks its top bit", q, powers[q-minExp10][1])
		}
	}
	// Rows of the toolchain's table (src/strconv/eisel_lemire.go).
	for _, row := range []struct {
		q      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0, 0x8000000000000000},
		{22, 0, 0x878678326EAC9000},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := powers[row.q-minExp10]; got != [2]uint64{row.lo, row.hi} {
			t.Errorf("1e%d: %#x, want {%#x, %#x}", row.q, got, row.lo, row.hi)
		}
	}
}

// countFallbacks makes parseFloat count its calls into *n for the test.
func countFallbacks(t *testing.T, n *int) {
	t.Cleanup(func() { parseFloat = strconv.ParseFloat })
	parseFloat = func(s string, bitSize int) (float64, error) {
		*n++
		return strconv.ParseFloat(s, bitSize)
	}
}

// The numbers records hold never reach the fallback: makespans, ratios and
// unfairness values, each in the text AppendFloat writes for it.
func TestRecordFloatsTakeTheExactPaths(t *testing.T) {
	var fallbacks int
	countFallbacks(t, &fallbacks)
	r := rand.New(rand.NewSource(31))
	var buf []byte
	for i := 0; i < 100000; i++ {
		var v float64
		switch i % 3 {
		case 0:
			v = math.Pow(10, 2+3*r.Float64()) // makespan, 1e2–1e5
		case 1:
			v = 1 + 9*r.Float64() // ratio, 1–10
		default:
			v = r.Float64() // unfairness, 0–1
		}
		buf, _ = AppendFloat(buf[:0], v)
		c := NewCursor(buf)
		if got := c.float(c.number()); !c.End() || got != v {
			t.Fatalf("%s reads %v", buf, got)
		}
	}
	if fallbacks != 0 {
		t.Fatalf("%d of 100000 record values fell back to strconv.ParseFloat", fallbacks)
	}
	// The counter sees a number the exact paths decline.
	c := NewCursor([]byte("1e400"))
	if c.float(c.number()); fallbacks != 1 || c.End() {
		t.Fatalf("1e400: %d fallbacks, verdict %v", fallbacks, !c.bad)
	}
}
