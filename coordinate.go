package ptgsched

import (
	"ptgsched/internal/coord"
)

// Fleet coordination (the fault-tolerant distribution layer): a campaign
// spec is split into shard leases, dispatched to remote ptgserve workers
// over the /v1/jobs API, and driven to completion under failure — retries
// with capped exponential backoff and Retry-After honoring, dead- and
// stalled-worker detection, lease reassignment, and a streaming deduped
// merge whose tables are bit-identical to a single-machine run.
type (
	// FleetCoordinator drives one campaign over a worker fleet; create
	// with NewFleetCoordinator, run once with its Run method.
	FleetCoordinator = coord.Coordinator
	// FleetOptions shapes the coordination: shard count, job
	// parallelism, poll cadence, stall timeout, logging, the shared cache
	// and the per-worker client's test seams.
	FleetOptions = coord.Options
	// FleetClientOptions holds the hardened per-worker HTTP client's
	// test seams (the fault-injection transport and the backoff sleep).
	FleetClientOptions = coord.ClientOptions
	// FleetCounters snapshots the robustness counters (dispatches,
	// retries, reassignments, worker deaths, deduplicated points).
	FleetCounters = coord.CountersSnapshot
	// FleetProgress is a point-in-time completion view.
	FleetProgress = coord.Progress
	// FleetStats bundles counters and progress — the payload of the
	// coordinator's own /v1/stats endpoint.
	FleetStats = coord.FleetStats
	// WorkerClient is the hardened client to one ptgserve worker, usable
	// on its own for scripted job control.
	WorkerClient = coord.Client
	// WorkerStatusError is a non-2xx worker response the retry loop did
	// not (or could not) retry away.
	WorkerStatusError = coord.StatusError
)

// NewFleetCoordinator validates and expands the campaign spec and
// prepares a coordinator over the given worker addresses ("host:port" or
// full URLs).
func NewFleetCoordinator(specJSON []byte, workers []string, opts FleetOptions) (*FleetCoordinator, error) {
	return coord.New(specJSON, workers, opts)
}

// NewWorkerClient returns a hardened HTTP client for one worker address.
func NewWorkerClient(base string, opts FleetClientOptions) (*WorkerClient, error) {
	return coord.NewClient(base, opts)
}
