package store

// Crash-resume coverage: sweeps are killed by truncating a segment
// mid-record (the exact footprint of a SIGKILL during an append), reopened,
// resumed, and their final aggregates compared bit-identically against
// uninterrupted references — on a small spec for the fast path, and against
// the unsharded Fig. 3 golden (experiment.Run(Fig3Config(42,25)), the same
// reference the scenario acceptance test uses) when run without -short.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ptgsched/internal/experiment"
	"ptgsched/internal/scenario"
)

// smokeSpec is a tiny campaign (8 points, strassen on two sites).
const smokeSpec = `{
	"name": "smoke",
	"seed": 9,
	"reps": 2,
	"nptgs": [2, 3],
	"platforms": ["lille", "rennes"],
	"families": [{"family": "strassen"}]
}`

func expand(t *testing.T, specJSON string) *scenario.Expansion {
	t.Helper()
	spec, err := scenario.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// truncateTail chops n bytes off the end of a file, simulating a crash that
// tore the final record.
func truncateTail(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= n {
		t.Fatalf("segment %s too small (%d bytes) to tear %d", path, fi.Size(), n)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	e := expand(t, smokeSpec)
	dir := filepath.Join(t.TempDir(), "store")

	s, err := Create(dir, e, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ran, skipped, err := s.Sweep(e.All(), 2); err != nil || ran != 8 || skipped != 0 {
		t.Fatalf("Sweep = (%d, %d, %v), want (8, 0, nil)", ran, skipped, err)
	}
	want, err := s.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Progress(); got.Completed != 8 || got.Total != 8 {
		t.Fatalf("reopened progress %+v, want 8/8", got)
	}
	if ran, skipped, err := s2.Sweep(e.All(), 0); err != nil || ran != 0 || skipped != 8 {
		t.Fatalf("resumed Sweep = (%d, %d, %v), want (0, 8, nil)", ran, skipped, err)
	}
	got, err := s2.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0].Result.Points, want[0].Result.Points) {
		t.Fatal("reopened aggregate differs from original")
	}
}

func TestTornFinalLineIsRecoveredAndResumed(t *testing.T) {
	e := expand(t, smokeSpec)

	// The uninterrupted reference.
	ref, err := e.Aggregate(runAll(t, e))
	if err != nil {
		t.Fatal(err)
	}

	for _, tear := range []int64{1, 7} { // mid-record and just-the-newline-ish
		t.Run(fmt.Sprintf("tear=%d", tear), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			s, err := Create(dir, e, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Sweep(e.All(), 1); err != nil {
				t.Fatal(err)
			}
			s.Close()

			truncateTail(t, segmentPath(dir, 1), tear)

			s2, err := Open(dir, e)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			pr := s2.Progress()
			if pr.Completed != 7 {
				t.Fatalf("after tear: %d completed, want 7", pr.Completed)
			}
			if got := s2.CountDone(e.All()); got != 7 {
				t.Fatalf("CountDone reports %d completed, want 7", got)
			}
			if s2.IsDone(7) {
				t.Fatal("torn point still marked done")
			}
			if ran, skipped, err := s2.Sweep(e.All(), 2); err != nil || ran != 1 || skipped != 7 {
				t.Fatalf("resumed Sweep = (%d, %d, %v), want (1, 7, nil)", ran, skipped, err)
			}
			got, err := s2.Aggregate()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[0].Result.Points, ref[0].Result.Points) {
				t.Fatal("killed+resumed aggregate differs from uninterrupted run")
			}
		})
	}
}

func TestShardedStoresRecombineAfterCrash(t *testing.T) {
	e := expand(t, smokeSpec)
	ref, err := e.Aggregate(runAll(t, e))
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "store")
	s, err := Create(dir, e, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Shards 0..2 complete; shard 3 is killed mid-final-record.
	for shard := 0; shard < 4; shard++ {
		pts, err := e.Shard(shard, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Sweep(pts, 1); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	truncateTail(t, segmentPath(dir, 3), 5)

	s2, err := Open(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pr := s2.Progress()
	if len(pr.Shards) != 4 {
		t.Fatalf("%d shard states, want 4", len(pr.Shards))
	}
	if pr.Shards[3].Completed != pr.Shards[3].Points-1 {
		t.Fatalf("shard 3 state %+v, want one pending", pr.Shards[3])
	}
	pts3, _ := e.Shard(3, 4)
	if ran, _, err := s2.Sweep(pts3, 0); err != nil || ran != 1 {
		t.Fatalf("shard-3 resume ran %d (%v), want 1", ran, err)
	}
	got, err := s2.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0].Result.Points, ref[0].Result.Points) {
		t.Fatal("4-shard crash-resumed aggregate differs from unsharded run")
	}
}

// TestOpenLeavesForeignSegmentsUntouched pins the shared-store contract:
// recovery classifies a torn tail but must not mutate a segment this
// process never appends to — over a shared filesystem that tail may be
// another shard's in-flight append, not a torn record.
func TestOpenLeavesForeignSegmentsUntouched(t *testing.T) {
	e := expand(t, smokeSpec)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Create(dir, e, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Sweep(e.All(), 1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	truncateTail(t, segmentPath(dir, 0), 7) // "torn" tail in shard 0's segment

	sizeBefore := func(i int) int64 {
		fi, err := os.Stat(segmentPath(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	torn := sizeBefore(0)

	// Open, then sweep only shard 1's points: segment 0 must keep its
	// torn bytes on disk (its owner may still be alive elsewhere).
	s2, err := Open(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	pts1, _ := e.Shard(1, 2)
	if _, _, err := s2.Sweep(pts1, 1); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if got := sizeBefore(0); got != torn {
		t.Fatalf("segment 0 changed from %d to %d bytes without an append to it", torn, got)
	}

	// A sweep that does append to segment 0 truncates the tail first and
	// completes the store.
	s3, err := Open(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if ran, _, err := s3.Sweep(e.All(), 1); err != nil || ran != 1 {
		t.Fatalf("final resume ran %d (%v), want 1", ran, err)
	}
	if got := s3.Progress(); got.Completed != got.Total {
		t.Fatalf("store incomplete after resume: %+v", got)
	}
}

// opens are the two ways to open an existing store. They accept exactly
// the same stores, and neither mutates a segment.
var opens = []struct {
	name string
	open func(string, *scenario.Expansion) (*Store, error)
}{{"Open", Open}, {"OpenRead", OpenRead}}

func TestOpenRejectsForeignAndCorruptStores(t *testing.T) {
	e := expand(t, smokeSpec)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Create(dir, e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Sweep(e.All(), 1); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A different spec (different seed → different digest) must be refused.
	other := expand(t, `{"name":"smoke","seed":10,"reps":2,"nptgs":[2,3],
		"platforms":["lille","rennes"],"families":[{"family":"strassen"}]}`)
	for _, o := range opens {
		if _, err := o.open(dir, other); err == nil {
			t.Errorf("%s: store opened against a different campaign spec", o.name)
		}
	}

	// Corruption before the end of a segment is an error, not a recovery.
	seg := segmentPath(dir, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[10] = 'X' // damage the first record
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, o := range opens {
		if _, err := o.open(dir, e); err == nil {
			t.Errorf("%s: store with mid-segment corruption opened cleanly", o.name)
		}
		if got, err := os.ReadFile(seg); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s changed the corrupt segment (%v)", o.name, err)
		}
	}

	// Creating over an existing store must be refused — and still refused
	// when only the manifest was deleted: stale segments invisible to a
	// fresh done-set would corrupt the new run.
	if _, err := Create(dir, e, 1); err == nil {
		t.Error("Create over an existing store succeeded")
	}
	if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, e, 1); err == nil {
		t.Error("Create over stale segments (manifest deleted) succeeded")
	}

	// A directory without a manifest is not a store.
	for _, o := range opens {
		if _, err := o.open(t.TempDir(), e); err == nil {
			t.Errorf("%s: empty directory opened as a store", o.name)
		}
	}
}

// TestOpenReadReportsWriterProgress: a read-only handle recovers the done
// bitmap by the writer's own scan, so its progress readers answer as a
// writer's do — on a partial store whose last record is torn.
func TestOpenReadReportsWriterProgress(t *testing.T) {
	e := expand(t, twoFamilySpec)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Create(dir, e, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.NumPoints(); i += 2 {
		if err := s.Append(synth(e, i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	truncateTail(t, segmentPath(dir, 0), 5)

	w, err := Open(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := OpenRead(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := r.Progress(), w.Progress(); !reflect.DeepEqual(got, want) || want.Completed == 0 {
		t.Fatalf("OpenRead progress %+v, writer's %+v", got, want)
	}
	for i := 0; i < e.NumPoints(); i++ {
		if r.IsDone(i) != w.IsDone(i) {
			t.Fatalf("point %d: IsDone %v on the read handle, %v on the writer", i, r.IsDone(i), w.IsDone(i))
		}
	}
	for k := 0; k < 3; k++ {
		set, err := e.Shard(k, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r.CountDone(set), w.CountDone(set); got != want {
			t.Fatalf("shard %d: CountDone %d on the read handle, %d on the writer", k, got, want)
		}
	}
}

func TestAppendRejectsDuplicatesAndForeignPoints(t *testing.T) {
	e := expand(t, smokeSpec)
	s, err := Create(filepath.Join(t.TempDir(), "store"), e, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	r := e.RunPoint(e.PointAt(3))
	if err := s.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(r); err == nil {
		t.Error("duplicate append accepted")
	}
	bad := r
	bad.Index = 99
	if err := s.Append(bad); err == nil {
		t.Error("out-of-range index accepted")
	}
	bad = r
	bad.Index = 4
	bad.Cell = 7
	if err := s.Append(bad); err == nil {
		t.Error("cell-mismatched record accepted")
	}
}

// TestCrashResumeReproducesFig3Golden is the acceptance criterion at paper
// scale: the Fig. 3 campaign, killed mid-run (a segment torn mid-record)
// and resumed from its store, aggregates bit-identically to the unsharded
// golden experiment.Run(Fig3Config(42, 25)) — both as a 1-segment store and
// recombined from a 4-shard store. Skipped under -short like the scenario
// acceptance sweep it mirrors.
func TestCrashResumeReproducesFig3Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 3 campaign; run without -short")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := experiment.Run(experiment.Fig3Config(42, 25))

	for _, shards := range []int{1, 4} {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("store%d", shards))
		s, err := Create(dir, e, shards)
		if err != nil {
			t.Fatal(err)
		}
		// First life: run 60% of the sweep (a prefix index set), then
		// "crash": close the store and tear the final record of the last
		// segment.
		cut := e.NumPoints() * 3 / 5
		if _, _, err := s.Sweep(scenario.IndexSet{Limit: cut, Stride: 1}, 0); err != nil {
			t.Fatal(err)
		}
		s.Close()
		truncateTail(t, segmentPath(dir, (cut-1)%shards), 9)

		// Second life: reopen, resume, finish.
		s, err = Open(dir, e)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Progress().Completed; got != cut-1 {
			t.Fatalf("shards=%d: %d completed after crash, want %d", shards, got, cut-1)
		}
		ran, skipped, err := s.Sweep(e.All(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if ran != e.NumPoints()-cut+1 || skipped != cut-1 {
			t.Fatalf("shards=%d: resume ran %d skipped %d", shards, ran, skipped)
		}
		tables, err := s.Aggregate()
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		if !reflect.DeepEqual(tables[0].Result.Points, want.Points) {
			t.Fatalf("shards=%d: crash-resumed store does not reproduce the Fig. 3 golden bit-identically", shards)
		}
	}
}
