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
func parseJSONLDirect(line []byte) (r PointResult, ok bool) {
	c := jsonl.NewCursor(line)
	c.Lit(`{"index":`)
	r.Index = c.Int()
	c.Lit(`,"cell":`)
	r.Cell = c.Int()
	c.Lit(`,`)
	r.Name, r.Unfairness, r.Makespan, r.Rel = c.Measurement()
	c.Lit(`}`)
	return r, c.End()
}
