package cache

import (
	"encoding/json"

	"ptgsched/internal/jsonl"
)

// record is one cached measurement. Sum and Proof are omitted from the
// canonical body (the bytes Sum hashes) by their omitempty tags.
type record struct {
	Key        string    `json:"key"`
	Name       string    `json:"name"`
	Unfairness []float64 `json:"unfairness"`
	Makespan   []float64 `json:"makespan"`
	Rel        []float64 `json:"rel"`
	Sum        string    `json:"sum,omitempty"`
	Proof      string    `json:"proof,omitempty"`
}

// appendRecord appends rec's encoding — json.Marshal's bytes, omitempty
// included — to buf. With Sum and Proof empty that is the hashed body.
func appendRecord(buf []byte, rec record) ([]byte, error) {
	buf = jsonl.AppendString(append(buf, `{"key":`...), rec.Key)
	buf, err := jsonl.AppendMeasurement(append(buf, ','), rec.Name, rec.Unfairness, rec.Makespan, rec.Rel)
	if err != nil {
		return buf, err
	}
	if rec.Sum != "" {
		buf = jsonl.AppendString(append(buf, `,"sum":`...), rec.Sum)
	}
	if rec.Proof != "" {
		buf = jsonl.AppendString(append(buf, `,"proof":`...), rec.Proof)
	}
	return append(buf, '}'), nil
}

// parseRecord decodes one record line. A line in exactly the layout put
// writes is read directly; any other goes to json.Unmarshal, so the value
// and the error are encoding/json's for every input. body is the direct
// path's verdict: for a line it read, the length of the prefix before
// `,"sum":` (the line's own body is line[:body] + "}"); -1 otherwise.
func parseRecord(line []byte) (record, int, error) {
	if rec, body := parseRecordDirect(line); body >= 0 {
		return rec, body, nil
	}
	var rec record
	err := json.Unmarshal(line, &rec)
	return rec, -1, err
}

// parseRecordDirect is parseRecord's direct path; body is -1 for a line
// outside put's layout.
func parseRecordDirect(line []byte) (rec record, body int) {
	c := jsonl.NewCursor(line)
	c.Lit(`{"key":`)
	rec.Key = c.String()
	c.Lit(`,`)
	rec.Name, rec.Unfairness, rec.Makespan, rec.Rel = c.Measurement()
	body = c.Offset()
	c.Lit(`,"sum":`)
	rec.Sum = c.String()
	c.Lit(`,"proof":`)
	rec.Proof = c.String()
	c.Lit(`}`)
	if !c.End() {
		return record{}, -1
	}
	return rec, body
}
