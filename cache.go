package ptgsched

import (
	"ptgsched/internal/cache"
	"ptgsched/internal/scenario"
)

// Content-addressed result cache (internal/cache): campaign points are
// memoized under tamper-evident hash-chained segments, so overlapping
// campaigns — across runs, jobs, users and fleet workers sharing one
// directory — skip recomputation, and any corrupted entry is detected on
// read and recomputed instead of served.
type (
	// CampaignCache is an open cache directory. Bind it to an expansion
	// to obtain a CampaignMemo for CampaignSweepOptions.Memo or
	// CampaignStore.UseMemo.
	CampaignCache = cache.Cache
	// CampaignCacheStats is the cache counter snapshot (hits, misses,
	// verify failures, entries, segments).
	CampaignCacheStats = cache.Stats
	// CampaignCacheVerifyError diagnoses one detected cache corruption.
	CampaignCacheVerifyError = cache.VerifyError
	// CampaignMemo is the per-point memoization interface sweeps consult
	// (scenario.Memo).
	CampaignMemo = scenario.Memo
)

// OpenCampaignCache opens (creating if needed) a content-addressed result
// cache directory, verifying every segment's hash chain.
var OpenCampaignCache = cache.Open
