package coord

// Coordinator ↔ cache integration: a fleet sharing one cache directory
// skips already-proven points. A coordinator seeded from a fully warm
// cache dispatches nothing at all; a coordinator with a cache publishes
// every merged worker result back, so a second fleet run over the same
// directory is free.

import (
	"reflect"
	"testing"

	"ptgsched/internal/cache"
	"ptgsched/internal/scenario"
)

func openCache(t *testing.T, dir string) *cache.Cache {
	t.Helper()
	ch, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ch.Close() })
	return ch
}

func TestCoordinatorSeedsFromWarmCache(t *testing.T) {
	want, e := directTables(t, []byte(fleetSpec))

	// Warm the cache locally, the way a previous campaign run would.
	dir := t.TempDir()
	ch := openCache(t, dir)
	if _, err := e.Run(e.All(), scenario.SweepOptions{Memo: ch.Bind(e)}); err != nil {
		t.Fatal(err)
	}
	if err := ch.Sync(); err != nil {
		t.Fatal(err)
	}

	// A fresh handle on the same directory, as a new coordinator process
	// would open.
	ch2 := openCache(t, dir)
	c, got := runCoordinator(t, []byte(fleetSpec), newFleet(t, 2), Options{
		Shards: 4,
		Client: fastClient,
		Cache:  ch2,
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cache-seeded fleet tables differ from the direct run")
	}
	cs := c.Counters()
	if cs.CacheSeededPoints != int64(e.NumPoints()) {
		t.Fatalf("cache_seeded_points=%d, want %d", cs.CacheSeededPoints, e.NumPoints())
	}
	if cs.Dispatches != 0 {
		t.Fatalf("fully warm cache still dispatched %d shards", cs.Dispatches)
	}
	// Seeded points are counted by provenance, not as worker merges.
	if cs.MergedPoints != 0 {
		t.Fatalf("merged_points=%d for a fleet that dispatched nothing", cs.MergedPoints)
	}
}

func TestCoordinatorPublishesMergedResults(t *testing.T) {
	// Cold fleet run with a cache attached: every merged point is
	// published, so the directory afterwards answers the whole campaign.
	want, e := directTables(t, []byte(fleetSpec))
	dir := t.TempDir()
	ch := openCache(t, dir)

	c, got := runCoordinator(t, []byte(fleetSpec), newFleet(t, 2), Options{
		Shards: 4,
		Client: fastClient,
		Cache:  ch,
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fleet-with-cache tables differ from the direct run")
	}
	if cs := c.Counters(); cs.CacheSeededPoints != 0 {
		t.Fatalf("cold cache seeded %d points", cs.CacheSeededPoints)
	}
	if err := ch.Sync(); err != nil {
		t.Fatal(err)
	}

	ch2 := openCache(t, dir)
	b := ch2.Bind(e)
	for i := 0; i < e.NumPoints(); i++ {
		if _, ok := b.Lookup(e.PointAt(i)); !ok {
			t.Fatalf("point %d not published back by the coordinator", i)
		}
	}
	st := ch2.Stats()
	if st.VerifyFailures != 0 {
		t.Fatalf("republished cache has %d verify failures", st.VerifyFailures)
	}

	// Second fleet over the same directory: all seeded, nothing
	// dispatched, bit-identical tables.
	c2, got2 := runCoordinator(t, []byte(fleetSpec), newFleet(t, 2), Options{
		Shards: 4,
		Client: fastClient,
		Cache:  ch2,
	})
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("second fleet run differs")
	}
	if cs := c2.Counters(); cs.Dispatches != 0 || cs.CacheSeededPoints != int64(e.NumPoints()) {
		t.Fatalf("second fleet: dispatches=%d seeded=%d", cs.Dispatches, cs.CacheSeededPoints)
	}
}
