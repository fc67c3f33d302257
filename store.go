package ptgsched

import (
	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
	"ptgsched/internal/store"
)

// Durable campaign store (the persistence layer under long-running
// sweeps): a store directory holds a manifest — the campaign spec's
// content digest, the expansion cardinality, the shard layout — plus one
// append-only JSONL segment per shard, each line a CampaignPointResult in
// the bit-exact campaign wire format. Every Append writes one whole line
// with a single write call, so a crash tears at most the final line of a
// segment; OpenCampaignStore truncates a torn tail away and recovers the
// completed-point bitmap, and a resumed sweep (Store.Sweep skips completed
// points) aggregates bit-identically to an uninterrupted run. The handle
// is memory-flat: it keeps one bit per point — results live on disk only,
// and Results/Aggregate re-scan the JSONL segments, streaming each record
// into the incremental aggregator. This is the engine behind
// `ptgbench -campaign -store DIR [-resume]`.
type (
	// CampaignStore is an open result store; create with
	// CreateCampaignStore, reopen with OpenCampaignStore, release with
	// its Close method.
	CampaignStore = store.Store
	// CampaignStoreManifest pins a store directory to one campaign.
	CampaignStoreManifest = store.Manifest
	// CampaignStoreProgress snapshots completion per shard and overall.
	CampaignStoreProgress = store.Progress
)

// Campaign store entry points.
var (
	// CreateCampaignStore initializes a directory as a new store for an
	// expansion, partitioned into the given number of shard segments.
	CreateCampaignStore = store.Create
	// OpenCampaignStore reopens an existing store against the same
	// expansion, recovering from a torn final line if the last run
	// crashed mid-append.
	OpenCampaignStore = store.Open
	// CampaignSpecDigest is the canonical content digest a store manifest
	// records (scenario.SpecDigest).
	CampaignSpecDigest = scenario.SpecDigest
)

// Query layer: each segment carries a sparse byte-offset index in a
// sidecar file (segment-NNNN.jsonl.idx, built incrementally at append
// time and reconstructed by a one-time scan for stores that predate it),
// and a compiled CampaignQueryPlan resolves a predicate — family,
// strategy, point-index range — to the minimal set of segment byte runs
// whose records can match. CampaignStore.Query reads and decodes only
// those runs; QueryStats reports the bytes and lines that pruning saved.
// This is the engine behind `ptgbench -query` and the service's
// GET /v1/jobs/{id}/results filters.
type (
	// CampaignQuery is a declarative result predicate. A zero To means
	// "end of the expansion" only via CampaignQueryNoLimit; To: 0 is the
	// legal empty range.
	CampaignQuery = query.Query
	// CampaignQueryPlan is a compiled, validated predicate bound to one
	// expansion; build with CompileCampaignQuery.
	CampaignQueryPlan = query.Plan
	// CampaignQueryStats accounts one query execution: bytes read and
	// lines decoded versus the store totals a full scan would touch.
	CampaignQueryStats = store.QueryStats
	// CampaignGroupRow is one (cell, #PTGs, strategy) aggregate row of
	// CampaignStore.AggregateWhere.
	CampaignGroupRow = query.GroupRow
)

// CampaignQueryNoLimit marks a CampaignQuery.To meaning "to the end of
// the expansion" (any negative value does).
const CampaignQueryNoLimit = query.NoLimit

// Query entry points.
var (
	// OpenCampaignStoreRead opens a store read-only for querying: index
	// sidecars are loaded (or rebuilt by scanning) but never written, no
	// write descriptors are held, and Append/Sweep are refused — safe
	// against a store another process is still sweeping into.
	OpenCampaignStoreRead = store.OpenRead
	// CompileCampaignQuery validates a predicate against an expansion and
	// compiles it into a plan.
	CompileCampaignQuery = query.Compile
	// NewCampaignGroupAggregator reduces a (filtered, projected) result
	// stream into CampaignGroupRow summaries — the reducer behind
	// CampaignStore.AggregateWhere, exposed for callers that bring their
	// own record source.
	NewCampaignGroupAggregator = query.NewGroupAggregator
)
