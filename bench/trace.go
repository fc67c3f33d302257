package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused this one (-1 for an
// operation's root span).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; nothing is written until the run ends.
// The spans are taken from the benchmark's own files, around calls into
// the packages' public functions — the program itself is not
// instrumented.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Op: op, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerStat sums the spans of one name.
type layerStat struct {
	calls int
	total time.Duration
	// self is total minus the time covered by child spans.
	self time.Duration
	// ops is the number of operations of the slice the spans came from,
	// the divisor of every per-op metric.
	ops int
}

func (s layerStat) perOp(unit time.Duration) float64 {
	if s.ops == 0 {
		return 0
	}
	return float64(s.total) / float64(unit) / float64(s.ops)
}

func (s layerStat) perCall(unit time.Duration) float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.total) / float64(unit) / float64(s.calls)
}

// layers groups the recorded spans by name.
func (t *tracer) layers(ops int) map[string]layerStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerStat)
	for _, s := range t.spans {
		st := out[s.Name]
		st.calls++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(s.End - s.Start - child[s.ID])
		st.ops = ops
		out[s.Name] = st
	}
	return out
}

// slice is what tracing part of one workload yields.
type slice struct {
	workload string
	// root names the span that wraps one whole op; layer shares are
	// taken over it.
	root string
	ops  int
	// failed counts ops whose stage-by-stage result differs from the
	// library's own result for the same input.
	failed int
	// traced is the wall time of the staged, traced ops; untraced is the
	// wall time of the same ops through the library's own entry point.
	traced, untraced time.Duration
	layers           map[string]layerStat
	// counts are counters taken at the same boundaries as the spans
	// (tasks generated, growth steps, placements, events, bytes).
	counts map[string]float64
	spans  []span
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Host     hostInfo `json:"host"`
	// Slices holds, per traced workload slice, its spans. The named
	// workload's slice comes first.
	Slices []traceFileSlice `json:"slices"`
}

type traceFileSlice struct {
	Workload string `json:"workload"`
	Ops      int    `json:"ops"`
	Spans    []span `json:"spans"`
}

func writeTraceFile(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
