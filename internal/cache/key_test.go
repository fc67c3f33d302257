package cache

// Satellite: cache-key determinism as a property. The per-point digest
// must be a pure function of (spec digest, global point index): byte
// identical across re-expansions, shard layouts, worker counts, publish
// orders, and resume-after-SIGKILL. Specs are generated quick-check
// style from a seeded rng so the suite is reproducible.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ptgsched/internal/scenario"
)

// randomSpec generates a small but varied campaign spec. Families,
// platforms, axes and optional dynamic/online sections are all drawn from
// rng so successive calls cover the spec space.
func randomSpec(rng *rand.Rand, i int) string {
	families := []string{
		`{"family": "strassen"}`,
		`{"family": "fft", "k": [2]}`,
		`{"family": "random", "tasks": [10], "widths": [0.4], "regularities": [0.5], "densities": [0.5], "jumps": [1], "complexities": ["mixed"]}`,
	}
	platforms := []string{"lille", "nancy", "rennes", "sophia"}
	rng.Shuffle(len(platforms), func(a, b int) { platforms[a], platforms[b] = platforms[b], platforms[a] })
	nPlat := 1 + rng.Intn(2)
	var quoted []string
	for _, p := range platforms[:nPlat] {
		quoted = append(quoted, fmt.Sprintf("%q", p))
	}
	var nptgs []string
	for n := 0; n < 1+rng.Intn(2); n++ {
		nptgs = append(nptgs, fmt.Sprint(2+rng.Intn(4)))
	}
	spec := fmt.Sprintf(`{
		"name": "prop-%d",
		"seed": %d,
		"reps": %d,
		"nptgs": [%s],
		"platforms": [%s],
		"families": [%s]`,
		i, rng.Int63n(1<<32), 1+rng.Intn(2),
		strings.Join(nptgs, ", "), strings.Join(quoted, ", "),
		families[rng.Intn(len(families))])
	if rng.Intn(3) == 0 {
		spec += fmt.Sprintf(`,
		"online": {"processes": ["poisson"], "rates": [%g]}`, 0.5+rng.Float64())
	}
	return spec + "\n}"
}

// keysOf computes the full key sequence for an expansion, in global point
// order.
func keysOf(t *testing.T, e *scenario.Expansion) []Key {
	t.Helper()
	d := scenario.SpecDigest(e.Spec)
	ks := make([]Key, e.NumPoints())
	for i := range ks {
		ks[i] = KeyFor(e, d, e.PointAt(i))
	}
	return ks
}

func TestKeyDeterminismProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1009))
	for trial := 0; trial < 25; trial++ {
		spec := randomSpec(rng, trial)
		e := expand(t, spec)
		keys := keysOf(t, e)

		// Pure function of the spec: a fresh parse+expand of the same
		// bytes yields the identical key sequence.
		if again := keysOf(t, expand(t, spec)); !reflect.DeepEqual(again, keys) {
			t.Fatalf("trial %d: re-expansion changed keys\nspec: %s", trial, spec)
		}

		// Injective within a campaign: distinct global indices must never
		// collide, or the cache would silently conflate points.
		seen := make(map[Key]int, len(keys))
		for i, k := range keys {
			if j, dup := seen[k]; dup {
				t.Fatalf("trial %d: points %d and %d share key %s\nspec: %s", trial, j, i, k, spec)
			}
			seen[k] = i
		}

		// Shard-layout invariance: for every layout 1..4, the key of a
		// point reached through a shard's index set equals the key from
		// global enumeration.
		d := scenario.SpecDigest(e.Spec)
		for shards := 1; shards <= 4; shards++ {
			covered := 0
			for s := 0; s < shards; s++ {
				set, err := e.Shard(s, shards)
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < set.Len(); j++ {
					gi := set.At(j)
					if k := KeyFor(e, d, e.PointAt(gi)); k != keys[gi] {
						t.Fatalf("trial %d: shard %d/%d point %d key mismatch", trial, s, shards, gi)
					}
					covered++
				}
			}
			if covered != len(keys) {
				t.Fatalf("trial %d: %d-way sharding covered %d of %d points", trial, shards, covered, len(keys))
			}
		}
	}
}

func TestKeyIgnoresSpecName(t *testing.T) {
	// Renaming a campaign must not invalidate its static cells: the key
	// captures what is computed, not what the spec file is called.
	a := expand(t, smokeSpec)
	b := expand(t, strings.Replace(smokeSpec, `"smoke"`, `"smoke-renamed"`, 1))
	da := scenario.SpecDigest(a.Spec)
	db := scenario.SpecDigest(b.Spec)
	if da == db {
		t.Fatal("renaming the spec did not change its digest")
	}
	for i := 0; i < a.NumPoints(); i++ {
		if KeyFor(a, da, a.PointAt(i)) != KeyFor(b, db, b.PointAt(i)) {
			t.Fatalf("static point %d keyed differently under a renamed spec", i)
		}
	}
}

func TestKeySensitivity(t *testing.T) {
	// Each semantically meaningful axis change must change every key it
	// governs — otherwise stale results would be served across campaigns
	// that genuinely differ.
	base := keysOf(t, expand(t, smokeSpec))
	mutations := map[string]string{
		"seed":     strings.Replace(smokeSpec, `"seed": 9`, `"seed": 10`, 1),
		"nptgs":    strings.Replace(smokeSpec, `[2, 3]`, `[2, 4]`, 1),
		"platform": strings.Replace(smokeSpec, `"rennes"`, `"sophia"`, 1),
		"family":   strings.Replace(smokeSpec, `"strassen"`, `"fft"`, 1),
	}
	for name, spec := range mutations {
		mut := keysOf(t, expand(t, spec))
		// Individual points untouched by the mutation may legitimately keep
		// their keys (an nptgs change leaves the n=2 half identical — that
		// is the memoization working); but the sequence as a whole must
		// differ, or the axis is not keyed at all.
		if reflect.DeepEqual(mut, base) {
			t.Fatalf("mutating %s left the whole key sequence unchanged", name)
		}
	}
}

func TestKeyStableUnderWorkersAndOrder(t *testing.T) {
	// Fill the same campaign into separate cache dirs with different
	// worker counts and publish orders; the resulting entry sets must be
	// identical and every lookup must serve byte-identical payloads.
	e := expand(t, smokeSpec)
	want := run(t, e, scenario.SweepOptions{Workers: 1})

	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	// dir 0: sequential. dir 1: 4 workers. dir 2: shuffled publish order.
	c0 := open(t, dirs[0])
	fill(t, c0, e, 1)
	c1 := open(t, dirs[1])
	fill(t, c1, e, 4)
	c2 := open(t, dirs[2])
	b2 := c2.Bind(e)
	order := rand.New(rand.NewSource(7)).Perm(e.NumPoints())
	for _, i := range order {
		b2.Publish(e.PointAt(i), want[i])
	}
	for _, c := range []*Cache{c0, c1, c2} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for _, dir := range dirs {
		c := open(t, dir)
		got := fill(t, c, e, 1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cache %s served results differing from the reference run", dir)
		}
		st := c.Stats()
		if st.Hits != uint64(e.NumPoints()) || st.VerifyFailures != 0 {
			t.Fatalf("cache %s: hits=%d fails=%d, want %d/0", dir, st.Hits, st.VerifyFailures, e.NumPoints())
		}
	}
}

func TestKeyStableAcrossKilledResume(t *testing.T) {
	// Simulate SIGKILL mid-campaign: publish a prefix through one handle,
	// abandon it without Close (no seal, file handle dropped on GC), then
	// resume with a fresh handle. The resumed sweep must hit exactly the
	// prefix and recompute the rest, ending byte-identical to a clean run.
	e := expand(t, smokeSpec)
	want := run(t, e, scenario.SweepOptions{Workers: 1})
	dir := t.TempDir()

	c := open(t, dir)
	b := c.Bind(e)
	half := e.NumPoints() / 2
	for i := 0; i < half; i++ {
		b.Publish(e.PointAt(i), want[i])
	}
	// Abandoned: no Close, no Sync, no seal.

	c2 := open(t, dir)
	got := fill(t, c2, e, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed sweep differs from clean run")
	}
	st := c2.Stats()
	if st.Hits != uint64(half) || st.Misses != uint64(e.NumPoints()-half) {
		t.Fatalf("resume: hits=%d misses=%d, want %d/%d", st.Hits, st.Misses, half, e.NumPoints()-half)
	}
	if st.VerifyFailures != 0 {
		t.Fatalf("resume flagged %d verify failures on an intact unsealed segment", st.VerifyFailures)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third generation sees the union of both writers' segments.
	c3 := open(t, dir)
	if st := c3.Stats(); st.Entries != e.NumPoints() || st.Segments != 2 {
		t.Fatalf("after resume: entries=%d segments=%d, want %d/2", st.Entries, st.Segments, e.NumPoints())
	}
}

// identity is the struct whose json.Marshal encoding appendIdentity
// writes by hand; it and oracleIdentity are KeyFor's identity record as
// it was built before, kept as the reference the keys of every cache on
// disk were hashed over.
type identity struct {
	V          int                `json:"v"`
	Cell       string             `json:"cell"`
	Family     string             `json:"family"`
	Strategies []strategyIdentity `json:"strategies"`
	Platform   platformIdentity   `json:"platform"`
	NPTGs      int                `json:"nptgs"`
	Rep        int                `json:"rep"`
	Seed       int64              `json:"seed"`
	Online     *onlineIdentity    `json:"online,omitempty"`
	Policy     string             `json:"policy"`
	Campaign   string             `json:"campaign"`
	Index      int                `json:"index"`
}

type strategyIdentity struct {
	Name string  `json:"name"`
	Mu   float64 `json:"mu"`
}

type clusterIdentity struct {
	Name  string  `json:"name"`
	Procs int     `json:"procs"`
	Speed float64 `json:"speed"`
}

type platformIdentity struct {
	Name         string            `json:"name"`
	SharedSwitch bool              `json:"shared_switch"`
	Clusters     []clusterIdentity `json:"clusters"`
}

type onlineIdentity struct {
	Process string  `json:"process"`
	Rate    float64 `json:"rate"`
}

func oracleIdentity(e *scenario.Expansion, specDigest string, p scenario.Point) identity {
	c := e.Cells[p.Cell]
	pf := e.Platforms[p.Platform]
	id := identity{
		V:          KeyVersion,
		Cell:       c.Label,
		Family:     c.Family.String(),
		Strategies: make([]strategyIdentity, len(c.Config.Strategies)),
		Platform: platformIdentity{
			Name:         pf.Name,
			SharedSwitch: pf.SharedSwitch,
			Clusters:     make([]clusterIdentity, len(pf.Clusters)),
		},
		NPTGs: p.NPTGs,
		Rep:   p.Rep,
		Seed:  p.Seed,
		Index: -1,
	}
	for i, s := range c.Config.Strategies {
		id.Strategies[i] = strategyIdentity{Name: s.Name(), Mu: s.Mu}
	}
	for i, cl := range pf.Clusters {
		id.Platform.Clusters[i] = clusterIdentity{Name: cl.Name, Procs: cl.Procs, Speed: cl.Speed}
	}
	if c.Online != nil {
		id.Online = &onlineIdentity{Process: c.Online.Process.String(), Rate: c.Online.Rate}
	}
	if c.Policy != "" {
		id.Policy = c.Policy
		id.Campaign = specDigest
		id.Index = p.Index
	}
	return id
}

// TestKeyIdentityMatchesEncodingJSON: for every point of static, online
// and dynamic campaigns — inline platforms with names that need escapes,
// fractional speeds and µ overrides among them — the hand-written
// identity record is json.Marshal's, so no key of any cache on disk moves.
func TestKeyIdentityMatchesEncodingJSON(t *testing.T) {
	specs := []string{smokeSpec, `{
		"name": "identity", "seed": 5, "reps": 2, "nptgs": [2, 3],
		"platforms": ["sophia"],
		"platform_specs": [{"name": "café <a&b> \"q\"", "shared_switch": true,
			"clusters": [{"name": "c\\0", "procs": 4, "speed": 2.5}, {"name": "c&1", "procs": 3, "speed": 1e-7}]}],
		"families": [{"family": "fft", "k": [2]}],
		"strategies": [{"name": "S"}, {"name": "WPS-work", "mu": 0.3}, {"name": "ES"}],
		"online": {"processes": ["poisson"], "rates": [0.75]}
	}`, `{
		"name": "identity-dyn", "seed": 7, "reps": 2, "nptgs": [2], "platforms": ["nancy"],
		"events": {"failures": [{"cluster": 0, "at": 50, "duration": 20}], "policies": ["restart", "checkpoint"]}
	}`}
	rng := rand.New(rand.NewSource(1013))
	for i := 0; i < 10; i++ {
		specs = append(specs, randomSpec(rng, i))
	}
	for _, spec := range specs {
		e := expand(t, spec)
		d := scenario.SpecDigest(e.Spec)
		for i := 0; i < e.NumPoints(); i++ {
			p := e.PointAt(i)
			want, err := json.Marshal(oracleIdentity(e, d, p))
			if err != nil {
				t.Fatal(err)
			}
			got, err := appendIdentity(nil, e, d, p)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("point %d (err %v):\n got %s\nwant %s", i, err, got, want)
			}
			if KeyFor(e, d, p) != Key(sha256.Sum256(want)) {
				t.Fatalf("point %d: KeyFor does not hash the identity record", i)
			}
		}
	}
}
