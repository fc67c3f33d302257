package scenario_test

// The projected direct path (ParseHead + RecordHead.Keep) against the
// pair it stands in for, ParseJSONL followed by query.Plan.Project. It is
// an external test so that it can compile real plans.

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
)

// projectedSpec has two families with different label sets, so a label
// sits at a different column per cell, and some labels exist only in the
// fft cells.
const projectedSpec = `{
  "name": "projected-fuzz",
  "seed": 5,
  "reps": 2,
  "nptgs": [2],
  "platforms": ["lille"],
  "families": [
    {"family": "strassen"},
    {"family": "fft", "k": [2]}
  ]
}`

// maxColumn is the highest raw column the fuzzer asks for: past the end
// of every list the expansion writes.
const maxColumn = 9

// projectedFixture is the expansion and its plans: no projection, then
// one per strategy label.
func projectedFixture(tb testing.TB) (*scenario.Expansion, []*query.Plan) {
	tb.Helper()
	spec, err := scenario.ParseSpec([]byte(projectedSpec))
	if err != nil {
		tb.Fatal(err)
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		tb.Fatal(err)
	}
	labels := []string{""}
	for _, c := range e.Cells {
		for _, l := range c.Config.Labels {
			if !slices.Contains(labels, l) {
				labels = append(labels, l)
			}
		}
	}
	plans := make([]*query.Plan, len(labels))
	for i, l := range labels {
		if plans[i], err = query.Compile(e, query.Query{Strategy: l, To: query.NoLimit}); err != nil {
			tb.Fatal(err)
		}
	}
	return e, plans
}

// projectedSeeds are full records of the expansion's cells and the ways a
// stored line goes wrong in a column a reader may skip.
func projectedSeeds(tb testing.TB, e *scenario.Expansion) [][]byte {
	tb.Helper()
	var lines [][]byte
	for _, i := range []int{0, e.NumPoints() - 1} {
		pt := e.PointAt(i)
		ns := len(e.Cells[pt.Cell].Config.Labels)
		r := scenario.PointResult{Index: i, Cell: pt.Cell, Name: pt.Name,
			Unfairness: make([]float64, ns), Makespan: make([]float64, ns), Rel: make([]float64, ns)}
		for s := 0; s < ns; s++ {
			r.Unfairness[s] = float64(s) / 7
			r.Makespan[s] = 1e21 + float64(s)
			r.Rel[s] = -float64(s) * 1e-7
		}
		line, err := scenario.AppendJSONL(nil, r)
		if err != nil {
			tb.Fatal(err)
		}
		lines = append(lines, line)
		short := r
		short.Unfairness, short.Makespan, short.Rel = r.Unfairness[:1], r.Makespan[:1], r.Rel[:1]
		if line, err = scenario.AppendJSONL(nil, short); err != nil {
			tb.Fatal(err)
		}
		lines = append(lines, line)
	}
	for _, l := range []string{
		`{"index":0,"cell":0,"name":"a","unfairness":[1,1e400,3],"makespan":[1,2,3],"rel":[1,2,3]}`,
		`{"index":0,"cell":0,"name":"a","unfairness":[1,-1e400],"makespan":[1,2],"rel":[1,2]}`,
		`{"index":0,"cell":0,"name":"a","unfairness":[1,1e-400,3],"makespan":[1,2,3],"rel":[1,2,3]}`,
		`{"index":0,"cell":0,"name":"a","unfairness":[1,2,3],"makespan":[1,2,3],"rel":[1,2`,
		`{"index":0,"cell":0,"name":"a","unfairness":[1,01],"makespan":[1,2],"rel":[1,2]}`,
		`{"index":0,"cell":0,"name":"a","unfairness":null,"makespan":[],"rel":[1]}`,
		`{"index":0,"cell":0,"name":"a\u00e9","unfairness":[1],"makespan":[1],"rel":[1]}`,
		`{"index":0,"cell":0, "name":"a","unfairness":[1],"makespan":[1],"rel":[1]}`,
		`{"index":0,"cell":-1,"name":"a","unfairness":[1],"makespan":[1],"rel":[1]}`,
		`{"index":0,"cell":99,"name":"a","unfairness":[1],"makespan":[1],"rel":[1]}`,
		`{"index":0,"cell":0,"name":"a","unfairness":[` + strings.Repeat("9", 400) + `],"makespan":[1],"rel":[1]}`,
		`{"index":0,"cell":0,"name":"a","unfairness":[1],"makespan":[1],"rel":[1]}junk`,
		`null`, ``, `{}`,
	} {
		lines = append(lines, []byte(l))
	}
	return lines
}

// FuzzProjectedParseMatchesParseJSONL: for any bytes and any column
// choice — none, each column, past the end, or a compiled plan's
// projection — the projected direct path accepts only lines ParseJSONL
// accepts, keeps exactly what Project would cut from ParseJSONL's record,
// and is taken wherever the full direct path is and the column exists.
// Through query.Plan.Parse, the fallback included, the record or error
// text equals ParseJSONL then Project on every input.
func FuzzProjectedParseMatchesParseJSONL(f *testing.F) {
	e, plans := projectedFixture(f)
	for _, line := range projectedSeeds(f, e) {
		for choice := 0; choice < maxColumn+2+len(plans); choice += 3 {
			f.Add(line, uint8(choice))
		}
	}
	f.Fuzz(func(t *testing.T, line []byte, choice uint8) {
		c := int(choice) % (maxColumn + 2 + len(plans))
		if c > maxColumn+1 {
			requirePlanParse(t, plans[c-maxColumn-2], line)
			return
		}
		requireKeep(t, line, c-1) // c == 0: no column
	})
}

// requireKeep checks Keep(col) for col in [-1, maxColumn], -1 standing
// for NoColumn, against ParseJSONL and the full direct path.
func requireKeep(t *testing.T, line []byte, col int) {
	t.Helper()
	if col < 0 {
		col = scenario.NoColumn
	}
	h := scenario.ParseHead(line)
	got, ok := h.Keep(col)
	full := scenario.ParseHead(line)
	fullRec, fullOK := full.Keep(scenario.AllColumns)
	want, err := scenario.ParseJSONL(line)
	if fullOK && (err != nil || !reflect.DeepEqual(fullRec, want) || !sameBits(fullRec, want)) {
		t.Fatalf("%q: the full direct path reads %#v, ParseJSONL %#v, %v", line, fullRec, want, err)
	}
	has := fullOK && (col == scenario.NoColumn ||
		col < len(want.Unfairness) && col < len(want.Makespan) && col < len(want.Rel))
	if ok != has {
		t.Fatalf("%q, column %d: direct path %v, want %v (full direct path %v)", line, col, ok, has, fullOK)
	}
	if !ok {
		return
	}
	if got.Index != want.Index || got.Cell != want.Cell {
		t.Fatalf("%q: head %d/%d, ParseJSONL %d/%d", line, got.Index, got.Cell, want.Index, want.Cell)
	}
	if col == scenario.NoColumn {
		if got.Name != "" || got.Unfairness != nil || got.Makespan != nil || got.Rel != nil {
			t.Fatalf("%q: no column kept %#v", line, got)
		}
		return
	}
	cut := scenario.PointResult{Index: want.Index, Cell: want.Cell, Name: want.Name,
		Unfairness: want.Unfairness[col : col+1], Makespan: want.Makespan[col : col+1], Rel: want.Rel[col : col+1]}
	if !reflect.DeepEqual(got, cut) || !sameBits(got, cut) {
		t.Fatalf("%q, column %d:\n got %#v\nwant %#v", line, col, got, cut)
	}
}

// requirePlanParse checks Plan.Parse against ParseJSONL then Project.
func requirePlanParse(t *testing.T, p *query.Plan, line []byte) {
	t.Helper()
	got, gerr := p.Parse(line)
	want, werr := scenario.ParseJSONL(line)
	if werr == nil {
		want, werr = p.Project(want)
	}
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%q, plan %q: error %v, ParseJSONL+Project says %v", line, p.Query().Strategy, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) || !sameBits(got, want) {
		t.Fatalf("%q, plan %q:\n got %#v\nwant %#v", line, p.Query().Strategy, got, want)
	}
}

// sameBits compares every float of two results bit for bit.
func sameBits(a, b scenario.PointResult) bool {
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

// TestProjectedParseSeeds runs the fuzzer's property over every seed and
// every column choice, so the plain test run covers them all.
func TestProjectedParseSeeds(t *testing.T) {
	e, plans := projectedFixture(t)
	for _, line := range projectedSeeds(t, e) {
		for col := -1; col <= maxColumn; col++ {
			requireKeep(t, line, col)
		}
		for _, p := range plans {
			requirePlanParse(t, p, line)
		}
	}
}
