package runner

import (
	"context"

	"rsepsim/internal/metrics"
)

// Executor is the execution layer: it runs one job to completion and returns
// its measured statistics. The scheduler treats it as a black box, which is
// what keeps the layers separable — the default executor is Simulate (the
// in-process pipeline), and tests and instrumentation substitute their own.
type Executor func(ctx context.Context, j Job) (*metrics.Stats, error)
