package ptgsched

import (
	"net/http"

	"ptgsched/internal/daggen"
	"ptgsched/internal/platform"
	"ptgsched/internal/service"
	"ptgsched/internal/strategy"
	"ptgsched/internal/workload"
)

// Scheduling service (the concurrency layer over the per-batch pipeline):
// many client sessions are multiplexed through one shared server core — a
// bounded worker pool running per-request Scheduler instances over shared
// read-only platforms. All service types are safe for concurrent use.
type (
	// Service is a concurrent scheduling service; create one with
	// NewService and release it with its Close method.
	Service = service.Service
	// ServiceOptions sizes the worker pool, the request queue and the
	// per-request timeout.
	ServiceOptions = service.Options
	// ServiceStats is a point-in-time snapshot of the service counters.
	ServiceStats = service.Stats
	// ScheduleServiceRequest is one offline batch-scheduling request.
	ScheduleServiceRequest = service.ScheduleRequest
	// ScheduleServiceResponse reports one scheduled batch.
	ScheduleServiceResponse = service.ScheduleResponse
	// OnlineServiceRequest is one dynamic-arrivals scheduling request.
	OnlineServiceRequest = service.OnlineRequest
	// OnlineServiceResponse reports one online run.
	OnlineServiceResponse = service.OnlineResponse
	// WorkloadServiceRequest is one workload-generation request.
	WorkloadServiceRequest = service.WorkloadRequest
	// WorkloadServiceResponse reports one generated workload.
	WorkloadServiceResponse = service.WorkloadResponse
	// CampaignServiceRequest is one declarative campaign sweep request
	// (an inline scenario spec), answered with aggregated tables.
	CampaignServiceRequest = service.CampaignRequest
	// CampaignServiceResponse reports one campaign sweep's tables.
	CampaignServiceResponse = service.CampaignResponse
	// CampaignJobRequest is one asynchronous campaign job submission:
	// Service.SubmitJob returns immediately with a job id, progress is
	// polled with JobStatusByID, completed results stream through
	// JobResults, filtered by a CampaignQuery, and CancelJob cancels via
	// context. A job may run one shard of the expansion.
	CampaignJobRequest = service.JobRequest
	// CampaignJobStatus is a point-in-time job snapshot (state,
	// completed/total points).
	CampaignJobStatus = service.JobStatus
)

// Service errors.
var (
	// ErrServiceQueueFull reports a request refused by a full queue.
	ErrServiceQueueFull = service.ErrQueueFull
	// ErrServiceClosed reports a request submitted after Close.
	ErrServiceClosed = service.ErrClosed
	// ErrJobNotFound reports an unknown campaign job id.
	ErrJobNotFound = service.ErrJobNotFound
	// ErrTooManyJobs reports a job registry full of live jobs.
	ErrTooManyJobs = service.ErrTooManyJobs
)

// NewService starts a concurrent scheduling service: a bounded request
// queue feeding a fixed worker pool, each worker running the full paper
// pipeline on a private Scheduler per request.
func NewService(opts ServiceOptions) *Service { return service.New(opts) }

// ServiceHandler exposes a service over HTTP+JSON (the ptgserve wire
// surface): POST /v1/schedule, /v1/online, /v1/workload and /v1/campaign,
// the asynchronous job routes (POST/GET /v1/jobs, GET /v1/jobs/{id} and
// /v1/jobs/{id}/results, DELETE /v1/jobs/{id}), plus GET /v1/stats,
// /metrics and /healthz. Every error response carries the JSON envelope
// {"error", "code"}. Serve it with http.ListenAndServe(addr,
// ServiceHandler(svc)); cmd/ptgserve adds flags and a graceful drain.
func ServiceHandler(s *Service) http.Handler { return service.Handler(s) }

// Name registries shared by the CLIs and the service wire format.
var (
	// PlatformByName resolves a Grid'5000 preset name (lille, nancy,
	// rennes, sophia) to a fresh Platform.
	PlatformByName = platform.ByName
	// FamilyByName parses a PTG family name (random, fft, strassen).
	FamilyByName = daggen.FamilyByName
	// StrategyByName parses a paper strategy name (S, ES, PS-*, WPS-*); a
	// negative mu selects the paper's calibrated default for WPS variants.
	StrategyByName = strategy.ByName
	// ProcessByName parses an arrival-process name (burst, poisson,
	// uniform).
	ProcessByName = workload.ProcessByName
)
