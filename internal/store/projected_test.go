package store

// Query converts only what it emits: the projected column of a matching
// record, nothing of a non-matching neighbor in a straddling run. These
// cases hold it to the errors of the full decode it replaced.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
)

// straddleSpec is one strassen cell of 8 points: appended in index order
// to one segment, they form one run, which a query for [3,5) straddles.
const straddleSpec = `{
	"name": "straddle",
	"seed": 3,
	"reps": 8,
	"nptgs": [2],
	"platforms": ["lille"],
	"families": [{"family": "strassen"}]
}`

// straddleStore writes every point of straddleSpec, short[i] with a
// single column, into a one-segment store and returns the plan keeping
// the cell's last column over [3,5), the segment's path and its lines.
func straddleStore(t *testing.T, short map[int]bool) (*query.Plan, string, [][]byte) {
	t.Helper()
	e := expand(t, straddleSpec)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Create(dir, e, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.NumPoints(); i++ {
		r := synth(e, i)
		if short[i] {
			r.Unfairness, r.Makespan, r.Rel = r.Unfairness[:1], r.Makespan[:1], r.Rel[:1]
		}
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	labels := e.Cells[0].Config.Labels
	p := compile(t, e, query.Query{Strategy: labels[len(labels)-1], From: 3, To: 5})
	if p.ProjectColumn(0) < 1 {
		t.Fatalf("projection column %d; the test needs one past a single-column list", p.ProjectColumn(0))
	}
	seg := segmentPath(dir, 0)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	return p, seg, bytes.SplitAfter(b, []byte("\n"))[:e.NumPoints()]
}

// queryStraddle reopens the store read-only and runs p through Query.
func queryStraddle(t *testing.T, p *query.Plan, seg string) ([]scenario.PointResult, error) {
	t.Helper()
	s, err := OpenRead(filepath.Dir(seg), p.Expansion())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return queryRecords(s, p)
}

// queryRecords runs p through an open store's Query.
func queryRecords(s *Store, p *query.Plan) ([]scenario.PointResult, error) {
	var got []scenario.PointResult
	_, err := s.Query(p, func(r scenario.PointResult) error {
		got = append(got, r)
		return nil
	})
	return got, err
}

func TestQueryStraddlingRunEmitsProjectedColumns(t *testing.T) {
	p, seg, _ := straddleStore(t, map[int]bool{0: true, 7: true}) // short neighbors are never projected
	got, err := queryStraddle(t, p, seg)
	if err != nil {
		t.Fatal(err)
	}
	k := p.ProjectColumn(0)
	if len(got) != 2 {
		t.Fatalf("emitted %d records, want 2", len(got))
	}
	for j, r := range got {
		want := synth(p.Expansion(), 3+j)
		if r.Index != want.Index || r.Name != want.Name || len(r.Makespan) != 1 ||
			r.Unfairness[0] != want.Unfairness[k] || r.Makespan[0] != want.Makespan[k] || r.Rel[0] != want.Rel[k] {
			t.Fatalf("record %d: %+v, want column %d of %+v", j, r, k, want)
		}
	}
}

// TestQueryStraddlingRunKeepsFullDecodeErrors damages non-matching
// records in columns no query converts. Damaged before the open, the
// store is refused by the recovery scan; damaged after it, keeping every
// line's length, Query meets the line inside an indexed run. Either way
// the error carries the full decode's for the line.
func TestQueryStraddlingRunKeepsFullDecodeErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record int
		damage func(line []byte) []byte
	}{
		{"out-of-range number", 1, func(line []byte) []byte {
			// The first unfairness value becomes 1e400…0 of the same
			// length: in the grammar, out of float64's range.
			i := bytes.Index(line, []byte(`"unfairness":[`)) + len(`"unfairness":[`)
			j := i + bytes.IndexByte(line[i:], ',')
			copy(line[i:j], "1e4"+strings.Repeat("0", j-i-3))
			return line
		}},
		{"list without its closing bracket", 6, func(line []byte) []byte {
			i := bytes.Index(line, []byte(`],"makespan":`))
			line[i] = ' '
			return line
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, seg, lines := straddleStore(t, nil)
			intact := bytes.Join(lines, nil)
			lines[tc.record] = tc.damage(lines[tc.record])
			damaged := bytes.Join(lines, nil)
			_, perr := scenario.ParseJSONL(bytes.TrimSuffix(lines[tc.record], []byte("\n")))
			if perr == nil {
				t.Fatalf("the damage left %q readable", lines[tc.record])
			}

			if err := os.WriteFile(seg, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenRead(filepath.Dir(seg), p.Expansion())
			if err == nil || !strings.Contains(err.Error(), "corrupt record before end of segment") ||
				!strings.Contains(err.Error(), perr.Error()) {
				t.Fatalf("OpenRead error %v, want the full decode's %q", err, perr)
			}

			if err := os.WriteFile(seg, intact, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := OpenRead(filepath.Dir(seg), p.Expansion())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := os.WriteFile(seg, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = queryRecords(s, p)
			if err == nil || !strings.Contains(err.Error(), "corrupt record inside indexed run") ||
				!strings.Contains(err.Error(), perr.Error()) {
				t.Fatalf("Query error %v, want the full decode's %q", err, perr)
			}
		})
	}
}

func TestQueryMatchingRecordShortOfProjectedColumn(t *testing.T) {
	p, seg, _ := straddleStore(t, map[int]bool{4: true})
	if _, err := queryStraddle(t, p, seg); !errors.Is(err, query.ErrMalformedRecord) {
		t.Fatalf("Query error %v, want %v", err, query.ErrMalformedRecord)
	}
}
