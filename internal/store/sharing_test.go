package store

// Concurrent-sharing coverage: one store directory, several live handles.
// The rules under test are the documented ones — any number of goroutines
// may append through one handle while another handle re-scans and
// aggregates; separate handles (processes) may write only disjoint
// shards, and a raced shard is refused at reopen; a foreign in-flight
// append (bytes after the last newline) is classified as a torn tail and
// skipped by readers, never destroyed and never reported as corruption.

import (
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"

	"ptgsched/internal/scenario"
)

// runAll computes every point of the smoke campaign once, for feeding
// handles manually.
func runAll(t *testing.T, e *scenario.Expansion) []scenario.PointResult {
	t.Helper()
	res, err := e.Run(e.All(), scenario.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAppendWhileOtherHandleAggregates interleaves a writer handle
// appending the campaign with a reader handle re-scanning the same
// directory: every scan must see only whole records (monotonically more
// of them, no errors), and once the writer syncs, the reader's Aggregate
// must be bit-identical to an uninterrupted in-memory run.
func TestAppendWhileOtherHandleAggregates(t *testing.T) {
	e := expand(t, smokeSpec)
	results := runAll(t, e)
	dir := t.TempDir() + "/store"

	w, err := Create(dir, e, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := Open(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	writerDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev, last := 0, false
		for !last {
			select {
			case <-writerDone:
				last = true // one more scan after the final append, then stop
			default:
			}
			n := 0
			if err := r.Each(func(scenario.PointResult) error { n++; return nil }); err != nil {
				t.Errorf("reader scan failed mid-write: %v", err)
				return
			}
			if n < prev {
				t.Errorf("reader scan went backwards: %d after %d records", n, prev)
				return
			}
			prev = n
		}
	}()

	for _, res := range results {
		if err := w.Append(res); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	close(writerDone)
	wg.Wait()

	got, err := r.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Aggregate(results)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reader handle's aggregate differs from the in-memory run")
	}
}

// TestTwoHandlesWriteDisjointShards is the sanctioned multi-process
// layout: two handles on one directory, each appending only its own
// modulo shard, concurrently. A fresh handle recovers the union and
// aggregates bit-identically.
func TestTwoHandlesWriteDisjointShards(t *testing.T) {
	e := expand(t, smokeSpec)
	results := runAll(t, e)
	dir := t.TempDir() + "/store"

	a, err := Create(dir, e, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, e)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for shard, h := range map[int]*Store{0: a, 1: b} {
		wg.Add(1)
		go func(shard int, h *Store) {
			defer wg.Done()
			for _, res := range results {
				if res.Index%2 != shard {
					continue
				}
				if err := h.Append(res); err != nil {
					t.Errorf("shard %d: %v", shard, err)
					return
				}
			}
		}(shard, h)
	}
	wg.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := Open(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Progress(); got.Completed != e.NumPoints() {
		t.Fatalf("recovered %d of %d points", got.Completed, e.NumPoints())
	}
	got, err := c.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Aggregate(results)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("two-writer store aggregates differently from the in-memory run")
	}
}

// TestRacedWritersRefusedOnReopen: two handles racing on the *same* shard
// is the unsupported layout — each handle's duplicate check knows only
// its own bitmap, so the race lands two copies of a point on disk. The
// store must refuse to reopen rather than silently double-count.
func TestRacedWritersRefusedOnReopen(t *testing.T) {
	e := expand(t, smokeSpec)
	results := runAll(t, e)
	dir := t.TempDir() + "/store"

	a, err := Create(dir, e, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	// Both handles append point 0: b's bitmap was recovered before a's
	// append landed, so b cannot see the duplicate coming.
	if err := a.Append(results[0]); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(results[0]); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b.Close()

	for _, o := range opens {
		if _, err := o.open(dir, e); err == nil {
			t.Fatalf("%s accepted a store with a raced (duplicated) point", o.name)
		}
	}
}

// TestForeignInFlightAppendReadsAsTornTail: a reader scanning a segment
// while another process is mid-append sees bytes after the last newline.
// That tail must be classified exactly like a crash's torn tail — skipped
// without error — and must be picked up once the line completes; the
// reader must never truncate it away (it owns no append to that segment).
func TestForeignInFlightAppendReadsAsTornTail(t *testing.T) {
	e := expand(t, smokeSpec)
	results := runAll(t, e)
	dir := t.TempDir() + "/store"

	w, err := Create(dir, e, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two whole records in segment 0 (points 0 and 2), then stop.
	for _, res := range results {
		if res.Index == 0 || res.Index == 2 {
			if err := w.Append(res); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.Close()
	whole, err := os.ReadFile(segmentPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}

	// A foreign writer is mid-append of point 4: half its line, no newline.
	var line []byte
	for _, res := range results {
		if res.Index == 4 {
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			line = append(b, '\n')
		}
	}
	seg := segmentPath(dir, 0)
	for _, o := range opens {
		t.Run(o.name, func(t *testing.T) {
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(line[:len(line)/2]); err != nil {
				t.Fatal(err)
			}

			r, err := o.open(dir, e)
			if err != nil {
				t.Fatalf("open with a foreign in-flight append: %v", err)
			}
			defer r.Close()
			n := 0
			if err := r.Each(func(scenario.PointResult) error { n++; return nil }); err != nil {
				t.Fatalf("scan with a foreign in-flight append: %v", err)
			}
			if n != 2 {
				t.Fatalf("scanned %d records, want 2 (the in-flight line skipped)", n)
			}

			// The foreign append completes; the reader must NOT have truncated it.
			if _, err := f.Write(line[len(line)/2:]); err != nil {
				t.Fatal(err)
			}
			n = 0
			if err := r.Each(func(scenario.PointResult) error { n++; return nil }); err != nil {
				t.Fatal(err)
			}
			if n != 3 {
				t.Fatalf("scanned %d records after the append completed, want 3", n)
			}

			// Retract the completed line for the next open.
			if err := os.Truncate(seg, int64(len(whole))); err != nil {
				t.Fatal(err)
			}
		})
	}
}
