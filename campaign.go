package ptgsched

import (
	"ptgsched/internal/events"
	"ptgsched/internal/scenario"
)

// Declarative campaign engine (the scenario layer): a JSON spec describing
// a scenario space — platforms (presets or inline heterogeneous cluster
// specs), PTG families with explicit parameter grids, strategy sets,
// replication counts, seeds and online arrival processes — expands into a
// deterministic cartesian sweep that runs over the experiment worker pool,
// optionally partitioned into shards whose JSONL outputs recombine
// bit-identically. The checked-in examples/campaign.json reproduces the
// paper's Figure 3 campaign through this path.
type (
	// CampaignSpec is a parsed declarative campaign.
	CampaignSpec = scenario.Spec
	// CampaignFamilySpec selects a PTG family and optional parameter grid.
	CampaignFamilySpec = scenario.FamilySpec
	// CampaignStrategySpec names one strategy of the comparison set.
	CampaignStrategySpec = scenario.StrategySpec
	// CampaignPlatformSpec is an inline (possibly heterogeneous) platform.
	CampaignPlatformSpec = scenario.PlatformSpec
	// CampaignClusterSpec is one cluster of an inline platform.
	CampaignClusterSpec = scenario.ClusterSpec
	// CampaignOnlineSpec sweeps the online scheduler's arrival processes.
	CampaignOnlineSpec = scenario.OnlineSpec
	// CampaignExpansion is a spec expanded into its deterministic sweep.
	// Points are generated lazily: PointAt(i) derives any point in O(1),
	// and selections (full sweep, shards, prefixes) are CampaignIndexSet
	// predicates, so campaign size is bounded by arithmetic, not memory.
	CampaignExpansion = scenario.Expansion
	// CampaignIndexSet selects a subset of a sweep's point indices by
	// predicate (limit/offset/stride) instead of a materialized slice.
	CampaignIndexSet = scenario.IndexSet
	// CampaignSweepOptions shapes a sweep over an expansion — workers,
	// memo, panic isolation, skip predicate, cancellation — for its Sweep
	// method and the Each (streaming) and Run (ordered slice) shapes.
	CampaignSweepOptions = scenario.SweepOptions
	// CampaignAggregator is the incremental, order-insensitive reduction:
	// feed it results one at a time (Add) from any shard, stream or store
	// and its Tables are bit-identical to a materialized aggregation.
	CampaignAggregator = scenario.Aggregator
	// CampaignCell is one aggregation cell of a sweep.
	CampaignCell = scenario.Cell
	// CampaignPoint is one fully determined scenario of a sweep.
	CampaignPoint = scenario.Point
	// CampaignPointResult is one point's per-strategy measurement, the
	// JSONL record of sharded sweeps.
	CampaignPointResult = scenario.PointResult
	// CampaignTable is one cell's aggregated summary; its Result renders
	// through ExperimentResult's table and CSV writers.
	CampaignTable = scenario.Table
	// CampaignEventsSpec declares a spec's dynamic event timeline: scripted
	// or stochastic platform failures, speed changes, PTG cancellations and
	// resubmissions, and the rescheduling policies to sweep. Per-point
	// timelines derive deterministically from the spec digest and point
	// index, so sharded sweeps stay bit-identical. An empty block behaves
	// exactly as omitting it.
	CampaignEventsSpec = events.Spec
	// CampaignFailureSpec is one failure source: a scripted down/up pair or
	// an MTTF/MTTR renewal process.
	CampaignFailureSpec = events.FailureSpec
	// CampaignSpeedChangeSpec scales one cluster's speed at an instant.
	CampaignSpeedChangeSpec = events.SpeedChangeSpec
	// CampaignCancelSpec withdraws one application, optionally resubmitting
	// it after a delay.
	CampaignCancelSpec = events.CancelSpec
	// EventTimeline is one point's concrete, time-ordered event sequence.
	EventTimeline = events.Timeline
	// Event is one concrete timeline entry; Kind discriminates it.
	Event     = events.Event
	EventKind = events.Kind
)

// Event kinds of a concrete timeline.
const (
	EventClusterDown = events.ClusterDown
	EventClusterUp   = events.ClusterUp
	EventSpeedChange = events.SpeedChange
	EventCancel      = events.Cancel
	EventResubmit    = events.Resubmit
)

// Campaign entry points.
var (
	// ParseCampaignSpec decodes and validates a JSON campaign spec.
	ParseCampaignSpec = scenario.ParseSpec
	// ExpandCampaign resolves a spec into its (lazily enumerated) sweep.
	ExpandCampaign = scenario.Expand
	// EstimateCampaignPoints computes a spec's expansion cardinality
	// (cells, points) arithmetically, without expanding it.
	EstimateCampaignPoints = scenario.EstimatePoints
	// PaperCampaignSpec returns the spec-driven form of a paper figure
	// campaign ("fig2" … "fig5").
	PaperCampaignSpec = scenario.PaperSpec
	// ParseCampaignShard parses a shard selector "i/n".
	ParseCampaignShard = scenario.ParseShard
	// WriteCampaignJSONL / ReadCampaignJSONL stream per-point results in
	// the bit-exact shard interchange format; ReadCampaignJSONLFunc is
	// the record-at-a-time reader merge flows feed an aggregator with.
	WriteCampaignJSONL    = scenario.WriteJSONL
	ReadCampaignJSONL     = scenario.ReadJSONL
	ReadCampaignJSONLFunc = scenario.ReadJSONLFunc
	// AppendCampaignJSONL appends one record (plus newline) to a reusable
	// byte buffer, byte-identically to json.Marshal — the allocation-free
	// encoder streaming sinks reuse one buffer with.
	AppendCampaignJSONL = scenario.AppendJSONL
)
