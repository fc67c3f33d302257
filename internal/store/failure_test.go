package store

// Failure-path coverage: what a store does when a segment write fails
// under it (the store poisons itself: ErrFailed until reopened), and
// lines longer than the recovery scan's read buffer.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
)

// TestFailedAppendPoisonsStore closes a live store's segment file under
// it: the failing Append reports the write error, every later Append and
// Sweep reports ErrFailed, and a reopen recovers a duplicate-free prefix
// whose resumed sweep aggregates exactly as an uncrashed store does.
func TestFailedAppendPoisonsStore(t *testing.T) {
	e := expand(t, smokeSpec)
	results := runAll(t, e)
	ref, err := e.Aggregate(results)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Create(dir, e, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2, 3} {
		if err := s.Append(results[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.segs[1].f.Close() // point 5 lives in segment 1

	err = s.Append(results[5])
	if err == nil || errors.Is(err, ErrFailed) || !errors.Is(err, os.ErrClosed) {
		t.Fatalf("failing Append = %v, want the write error", err)
	}
	if err := s.Append(results[4]); !errors.Is(err, ErrFailed) {
		t.Fatalf("Append after a failed write = %v, want ErrFailed", err)
	}
	if _, _, err := s.Sweep(e.All(), 2); !errors.Is(err, ErrFailed) {
		t.Fatalf("Sweep after a failed write = %v, want ErrFailed", err)
	}
	s.Close()

	s, err = Open(dir, e)
	if err != nil {
		t.Fatalf("reopen after a failed write: %v", err)
	}
	defer s.Close()
	if got := s.Progress().Completed; got != 4 {
		t.Fatalf("reopened store holds %d points, want the 4 written before the failure", got)
	}
	if s.IsDone(5) {
		t.Fatal("the point whose write failed is marked done")
	}
	if ran, skipped, err := s.Sweep(e.All(), 2); err != nil || ran != 4 || skipped != 4 {
		t.Fatalf("resumed Sweep = (%d, %d, %v), want (4, 4, nil)", ran, skipped, err)
	}
	got, err := s.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("resumed store's tables differ from an uncrashed run's")
	}
}

// TestLineLongerThanReadBuffer stores a record longer than the recovery
// scan's 256 KiB read buffer and reads it back through Open, Each,
// QueryFullScan and Query; torn and corrupt long lines keep their
// classification.
func TestLineLongerThanReadBuffer(t *testing.T) {
	e := expand(t, smokeSpec)
	results := runAll(t, e)
	long := results[6]
	long.Name = strings.Repeat("n", 300<<10)
	results[6] = long
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Create(dir, e, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s, err = Open(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Progress().Completed; got != len(results) {
		t.Fatalf("Open recovered %d points, want %d", got, len(results))
	}
	var seen []scenario.PointResult
	if err := s.Each(func(r scenario.PointResult) error {
		seen = append(seen, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if len(seen) != len(results) || !reflect.DeepEqual(seen[3], long) { // segment 0 holds 0, 2, 4, 6
		t.Fatalf("Each streamed %d records; the long one intact: %v", len(seen), len(seen) > 3 && reflect.DeepEqual(seen[3], long))
	}

	r, err := OpenRead(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, e, query.Query{To: query.NoLimit})
	fst, scanned := runQuery(t, r, p, true)
	_, indexed := runQuery(t, r, p, false)
	r.Close()
	if fst.Emitted != int64(len(results)) || indexed != scanned || !strings.Contains(scanned, long.Name) {
		t.Fatalf("QueryFullScan emitted %d records, indexed equal: %v", fst.Emitted, indexed == scanned)
	}

	// Torn: the long record is segment 0's last; without its newline it is
	// a torn tail, dropped on open.
	seg0 := segmentPath(dir, 0)
	intact, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	truncateTail(t, seg0, 1)
	if s, err = Open(dir, e); err != nil {
		t.Fatalf("torn long tail: %v", err)
	}
	if s.Progress().Completed != len(results)-1 || s.IsDone(6) {
		t.Fatalf("torn long tail: %d completed, point 6 done: %v", s.Progress().Completed, s.IsDone(6))
	}
	s.Close()

	// Corrupt: the long line damaged and followed by another record is
	// mid-segment corruption.
	damaged := bytes.Replace(intact, []byte(`"nnnn`), []byte(`"nn\x01n`), 1)
	lines := bytes.SplitAfter(damaged, []byte("\n"))
	moved := append(append([]byte(nil), lines[3]...), lines[0]...) // long line, then record 0
	lines[0], lines[3] = lines[3][:0], moved
	if err := os.WriteFile(seg0, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, e); err == nil || !strings.Contains(err.Error(), "corrupt record before end of segment") {
		t.Fatalf("corrupt long line mid-segment: %v", err)
	}
}
