package scenario

import (
	"encoding/json"
	"strconv"

	"ptgsched/internal/jsonl"
)

// AppendJSONL appends r's compact JSON encoding plus the trailing newline
// to buf and returns the extended buffer — the allocation-free form of
// json.Marshal for the hot emit paths (JSONL sinks, store segments). The
// produced bytes are identical to encoding/json's, so the wire format,
// the cache hash chain and every differential golden are unchanged; a
// dedicated test diffs the two encoders over adversarial values. On error
// (a non-finite float, which json.Marshal rejects too) the returned
// buffer holds a partial record and must be discarded.
func AppendJSONL(buf []byte, r PointResult) ([]byte, error) {
	buf = append(buf, `{"index":`...)
	buf = strconv.AppendInt(buf, int64(r.Index), 10)
	buf = append(buf, `,"cell":`...)
	buf = strconv.AppendInt(buf, int64(r.Cell), 10)
	buf, err := jsonl.AppendMeasurement(append(buf, ','), r.Name, r.Unfairness, r.Makespan, r.Rel)
	if err != nil {
		return buf, err
	}
	return append(buf, '}', '\n'), nil
}

// ParseJSONL decodes one record line, with or without its newline — the
// inverse of AppendJSONL. A line in exactly the layout AppendJSONL writes
// (its key order, no whitespace, a name of printable ASCII without
// escapes) is read directly, with one allocation for the name and one for
// the three float lists; any other line goes to json.Unmarshal. Either
// way the value and the error are encoding/json's, for every input, and
// nothing of line is retained.
func ParseJSONL(line []byte) (PointResult, error) {
	if r, ok := parseJSONLDirect(line); ok {
		return r, nil
	}
	var r PointResult
	err := json.Unmarshal(line, &r)
	return r, err
}

// parseJSONLDirect is ParseJSONL's direct path; ok is false for a line
// outside AppendJSONL's layout.
func parseJSONLDirect(line []byte) (PointResult, bool) {
	h := ParseHead(line)
	return h.Keep(AllColumns)
}

// What RecordHead.Keep keeps besides a single strategy column k ≥ 0.
const (
	// AllColumns keeps every column and the name: ParseJSONL's record.
	AllColumns = -1
	// NoColumn keeps only the index and the cell, and converts no float.
	NoColumn = -2
)

// A RecordHead is a record line read through its index and cell — the
// projected direct path's first half, for a reader that decides from
// those two what to keep of the rest (RecordHead.Keep).
type RecordHead struct {
	Index, Cell int
	c           jsonl.Cursor
}

// ParseHead starts the projected direct path on line. Index and Cell are
// what the line holds when Keep later accepts it, and meaningless when
// Keep refuses it.
func ParseHead(line []byte) RecordHead {
	h := RecordHead{c: jsonl.NewCursor(line)}
	h.c.Lit(`{"index":`)
	h.Index = h.c.Int()
	h.c.Lit(`,"cell":`)
	h.Cell = h.c.Int()
	h.c.Lit(`,`)
	return h
}

// Keep finishes the direct path, once per head. With col ≥ 0 it converts
// only strategy column col of each list and returns the record
// query.Plan.Project would cut from ParseJSONL's (lists of length 1); with AllColumns it returns
// ParseJSONL's record; with NoColumn it returns the index and cell alone.
// Every number it does not convert is still held to ParseJSONL's grammar
// and range. ok is false for a line outside AppendJSONL's layout, or
// without column col in some list: the caller then falls back to
// ParseJSONL (and Project), which give the verdict and the error.
func (h *RecordHead) Keep(col int) (r PointResult, ok bool) {
	r.Index, r.Cell = h.Index, h.Cell
	var kept [3]float64
	switch {
	case col == AllColumns:
		r.Name, r.Unfairness, r.Makespan, r.Rel = h.c.Measurement()
	case col >= 0:
		r.Name, kept = h.c.MeasurementColumn(col)
	default:
		h.c.MeasurementColumn(NoColumn)
	}
	h.c.Lit(`}`)
	if !h.c.End() {
		return PointResult{}, false
	}
	if col >= 0 {
		lists := append(make([]float64, 0, len(kept)), kept[:]...)
		r.Unfairness, r.Makespan, r.Rel = lists[0:1:1], lists[1:2:2], lists[2:3:3]
	}
	return r, true
}
