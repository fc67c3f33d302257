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
	_, err := submit[ScheduleResponse](ctx, s, "schedule", func(context.Context) (any, error) {
		<-release
		return &ScheduleResponse{}, nil
	})
	return err
}

// RunOnBorrowedScratch queues fn as a schedule-kind job that borrows a
// scratch from the idle set, runs fn on it and parks it, as a real request
// does, under the same panic recovery. It lets tests leave a request's
// scratch in any state they like.
func (s *Service) RunOnBorrowedScratch(ctx context.Context, fn func(*core.Scratch)) error {
	_, err := submit[ScheduleResponse](ctx, s, "schedule", func(context.Context) (any, error) {
		sc := scenario.Borrow()
		fn(sc.Core)
		sc.Park()
		return &ScheduleResponse{}, nil
	})
	return err
}

// Preset is the shared preset requests on site name run on.
func Preset(name string) *platform.Platform { return presets[name] }
