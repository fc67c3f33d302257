package cache

// Satellite: cross-campaign memoization differential. Two overlapping
// specs share one cache directory; the second campaign must (a) produce
// tables byte-identical to a cold run of itself, and (b) hit the cache on
// exactly the overlap — whose cardinality is computed independently, as
// the intersection of the two campaigns' key sets.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ptgsched/internal/scenario"
)

// keySet computes the set of content addresses a campaign touches.
func keySet(t *testing.T, e *scenario.Expansion) map[Key]bool {
	t.Helper()
	out := make(map[Key]bool, e.NumPoints())
	for _, k := range keysOf(t, e) {
		out[k] = true
	}
	return out
}

func overlap(a, b map[Key]bool) int {
	n := 0
	for k := range a {
		if b[k] {
			n++
		}
	}
	return n
}

func TestCrossCampaignMemoization(t *testing.T) {
	// Campaign A: the strassen smoke campaign. Campaign B: the same cell
	// region plus an extra fft family — A's points are a strict subset of
	// B's work.
	specA := smokeSpec
	specB := `{
		"name": "widened",
		"seed": 9,
		"reps": 2,
		"nptgs": [2, 3],
		"platforms": ["lille", "rennes"],
		"families": [{"family": "strassen"}, {"family": "fft", "k": [2]}]
	}`
	eA, eB := expand(t, specA), expand(t, specB)

	// The expected hit count comes from the key sets alone — an
	// independent oracle over the content addresses, not over the cache.
	want := overlap(keySet(t, eA), keySet(t, eB))
	if want != eA.NumPoints() {
		t.Fatalf("oracle: overlap=%d, want all %d of campaign A inside B", want, eA.NumPoints())
	}

	// Cold reference for B, no cache anywhere near it.
	cold := run(t, eB, scenario.SweepOptions{Workers: 1})

	dir := t.TempDir()
	cA := open(t, dir)
	fill(t, cA, eA, 1)
	if err := cA.Close(); err != nil {
		t.Fatal(err)
	}

	cB := open(t, dir)
	got := fill(t, cB, eB, 1)
	if !reflect.DeepEqual(got, cold) {
		t.Fatal("campaign B over A's cache differs from B's cold run")
	}
	tc, err := eB.Aggregate(cold)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := eB.Aggregate(got)
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := json.Marshal(tc)
	gb, _ := json.Marshal(tg)
	if !bytes.Equal(cb, gb) {
		t.Fatal("campaign B tables not byte-identical to the cold run")
	}

	st := cB.Stats()
	if st.Hits != uint64(want) {
		t.Fatalf("hits=%d, want exactly the overlap %d", st.Hits, want)
	}
	if st.Misses != uint64(eB.NumPoints()-want) {
		t.Fatalf("misses=%d, want %d", st.Misses, eB.NumPoints()-want)
	}
}

func TestCrossCampaignPartialOverlap(t *testing.T) {
	// A proper partial overlap: campaign C swaps one platform of the
	// smoke campaign, so exactly the lille half of its grid is shared.
	// (The nptgs list must stay identical: the per-point seed mixes the
	// nptgs *index*, so the same value at a different position is a
	// different experiment.) The oracle and the hit counter must agree
	// exactly.
	specC := `{
		"name": "narrowed",
		"seed": 9,
		"reps": 2,
		"nptgs": [2, 3],
		"platforms": ["lille", "sophia"],
		"families": [{"family": "strassen"}]
	}`
	eA, eC := expand(t, smokeSpec), expand(t, specC)
	want := overlap(keySet(t, eA), keySet(t, eC))
	if want == 0 || want == eC.NumPoints() {
		t.Fatalf("oracle: overlap=%d of %d — spec pair no longer exercises a partial overlap", want, eC.NumPoints())
	}

	cold := run(t, eC, scenario.SweepOptions{Workers: 1})
	dir := t.TempDir()
	cA := open(t, dir)
	fill(t, cA, eA, 1)
	if err := cA.Close(); err != nil {
		t.Fatal(err)
	}

	cC := open(t, dir)
	got := fill(t, cC, eC, 1)
	if !reflect.DeepEqual(got, cold) {
		t.Fatal("partially warmed campaign differs from its cold run")
	}
	st := cC.Stats()
	if st.Hits != uint64(want) || st.Misses != uint64(eC.NumPoints()-want) {
		t.Fatalf("hits=%d misses=%d, oracle wants %d/%d", st.Hits, st.Misses, want, eC.NumPoints()-want)
	}
}

func TestCrossCampaignDynamicIsPrivate(t *testing.T) {
	// Dynamic cells derive their event timelines from (spec digest,
	// index), so their results are only reusable within the identical
	// campaign: across different dynamic specs the oracle overlap must be
	// zero and the cache must not serve a single hit — while re-running
	// the *same* dynamic spec hits everything.
	dynA := `{
		"name": "dyn-a",
		"seed": 9,
		"reps": 1,
		"nptgs": [2],
		"platforms": ["lille"],
		"families": [{"family": "strassen"}],
		"events": {"policies": ["restart"], "failures": [{"cluster": 0, "at": 50, "duration": 10}]}
	}`
	dynB := `{
		"name": "dyn-b",
		"seed": 9,
		"reps": 1,
		"nptgs": [2],
		"platforms": ["lille"],
		"families": [{"family": "strassen"}],
		"events": {"policies": ["restart"], "failures": [{"cluster": 0, "at": 80, "duration": 10}]}
	}`
	eA, eB := expand(t, dynA), expand(t, dynB)
	if n := overlap(keySet(t, eA), keySet(t, eB)); n != 0 {
		t.Fatalf("dynamic campaigns share %d keys, want 0", n)
	}

	dir := t.TempDir()
	cA := open(t, dir)
	wantA := fill(t, cA, eA, 1)
	if err := cA.Close(); err != nil {
		t.Fatal(err)
	}

	// Different dynamic campaign: all misses.
	cB := open(t, dir)
	fill(t, cB, eB, 1)
	if st := cB.Stats(); st.Hits != 0 {
		t.Fatalf("dynamic campaign B hit A's entries %d times", st.Hits)
	}
	if err := cB.Close(); err != nil {
		t.Fatal(err)
	}

	// Same dynamic campaign again: all hits, identical results.
	cA2 := open(t, dir)
	got := fill(t, cA2, eA, 1)
	if !reflect.DeepEqual(got, wantA) {
		t.Fatal("re-run of a dynamic campaign differs")
	}
	if st := cA2.Stats(); st.Hits != uint64(eA.NumPoints()) || st.Misses != 0 {
		t.Fatalf("dynamic re-run: hits=%d misses=%d, want %d/0", st.Hits, st.Misses, eA.NumPoints())
	}
}
