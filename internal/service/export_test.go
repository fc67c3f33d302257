package service

import (
	"context"

	"ptgsched/internal/core"
)

// SubmitTestJob enqueues a job that blocks until release is closed. It lets
// tests saturate the worker pool and queue deterministically, without
// depending on how fast the real pipeline runs.
func (s *Service) SubmitTestJob(ctx context.Context, release <-chan struct{}) error {
	_, err := s.submit(ctx, "schedule", func(*core.Scratch) (any, error) {
		<-release
		return &ScheduleResponse{}, nil
	})
	return err
}

// RunOnWorkerScratch queues fn as a schedule-kind job and runs it on the
// worker's own scratch, under the same panic recovery and Release as a real
// request. It lets tests leave a worker's scratch in any state they like.
func (s *Service) RunOnWorkerScratch(ctx context.Context, fn func(*core.Scratch)) error {
	_, err := s.submit(ctx, "schedule", func(sc *core.Scratch) (any, error) {
		fn(sc)
		return &ScheduleResponse{}, nil
	})
	return err
}
