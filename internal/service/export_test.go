package service

import (
	"context"
	"math/rand"

	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/platform"
	"ptgsched/internal/scenario"
)

// CampaignWithPanickingCell0 is Campaign with the generator of the
// expansion's first cell replaced by one that panics: a degenerate
// generated scenario, which no JSON spec can ask for.
func (s *Service) CampaignWithPanickingCell0(ctx context.Context, req CampaignRequest) (*CampaignResponse, error) {
	e, err := req.resolve()
	if err != nil {
		return nil, err
	}
	e.Cells[0].Config.Gen = func(*dag.Graph, *rand.Rand) { panic("degenerate scenario") }
	return s.campaign(ctx, e)
}

// SubmitTestJob enqueues a job that blocks until release is closed. It lets
// tests saturate the worker pool and queue deterministically, without
// depending on how fast the real pipeline runs.
func (s *Service) SubmitTestJob(ctx context.Context, release <-chan struct{}) error {
	_, err := submit[ScheduleResponse](ctx, s, "schedule", func(context.Context, *scenario.Scratch) (any, error) {
		<-release
		return &ScheduleResponse{}, nil
	})
	return err
}

// RunOnWorkerScratch queues fn as a schedule-kind job and runs it on the
// worker's own scratch, under the same panic recovery and Release as a real
// request. It lets tests leave a worker's scratch in any state they like.
func (s *Service) RunOnWorkerScratch(ctx context.Context, fn func(*core.Scratch)) error {
	_, err := submit[ScheduleResponse](ctx, s, "schedule", func(_ context.Context, sc *scenario.Scratch) (any, error) {
		fn(sc.Core)
		return &ScheduleResponse{}, nil
	})
	return err
}

// Preset is the shared preset requests on site name run on.
func Preset(name string) *platform.Platform { return presets[name] }
