// Package serve exposes the runner's scheduler and its result store over
// HTTP.
//
// The daemon (cmd/rsepd) mounts Server; remote callers use Client, which
// satisfies runner.BatchRunner so the figure runners cannot tell which side
// of the wire they are on. The API:
//
//	POST /v1/batches        submit a runner.BatchSpec; the response streams
//	                        one NDJSON event per completed job and a final
//	                        summary
//	GET  /v1/results/{id}   one stored envelope, straight from the store;
//	                        id = store.ID(key), which doubles as a strong
//	                        ETag so edge caches can memoize indefinitely
//	GET  /healthz           liveness plus store/queue gauges
//	GET  /metrics           Prometheus text: hit/miss/stale counters, queue
//	                        depth, batch/job/simulation totals
//
// Any job whose key is already in the store is answered without touching
// the scheduler's executor, and every simulated result is written back
// through it — the store absorbs all repeated traffic.
package serve

import (
	"context"
	"errors"

	"rsepsim/internal/metrics"
	"rsepsim/internal/runner"
)

// event is one NDJSON line of a batch response stream.
// Event "result" resolves exactly one submitted job index; event "done"
// terminates the stream with batch-level outcome. Streaming results one by
// one (rather than a final array) is what makes client-side cancellation
// lossless: everything received before the cut is a finished job.
type event struct {
	Event string `json:"event"` // "result", "slice" or "done"

	// "result" fields ("slice" shares Index).
	Index    int            `json:"index,omitempty"`
	Done     int            `json:"done,omitempty"`
	Total    int            `json:"total,omitempty"`
	CacheHit bool           `json:"cache_hit,omitempty"`
	Stats    *metrics.Stats `json:"stats,omitempty"`
	JobError string         `json:"job_error,omitempty"`

	// "slice" fields: one resolved slice of a sliced job (Slices > 1). A
	// resumed slice was answered from the store; the rest simulated. Slice
	// events precede the job's "result" event and carry no stats — per-slice
	// deltas are an execution detail, the merged result is the product.
	Slice   int  `json:"slice,omitempty"`
	Slices  int  `json:"slices,omitempty"`
	Resumed bool `json:"resumed,omitempty"`

	// "done" fields.
	Counters *runner.Counters `json:"counters,omitempty"` // store delta for this batch
	Error    string           `json:"error,omitempty"`    // batch-level failure (non-partial)
	Partial  *partialInfo     `json:"partial,omitempty"`
}

// StatusResponse is the body of GET /v1/status: the scheduler's gauges and
// admission counters plus the result store's cumulative counters. Field names
// are part of the API — dashboards and the CI resume check key on them.
type StatusResponse struct {
	// Version and Go identify the build (ldflags-stamped release, or the
	// embedded VCS revision) and the toolchain that produced it.
	Version string `json:"version"`
	Go      string `json:"go,omitempty"`

	QueueDepth    int    `json:"queue_depth"`
	Running       int    `json:"running"`
	Waiting       int    `json:"waiting"`
	Batches       uint64 `json:"batches"`
	Jobs          uint64 `json:"jobs"`
	Simulations   uint64 `json:"simulations"`
	SlicesRun     uint64 `json:"slices_run"`
	SlicesResumed uint64 `json:"slices_resumed"`
	// CyclesSkipped is the cumulative count of simulated cycles the cores
	// fast-forwarded over (DESIGN §3.4) — how much per-cycle work the
	// quiescence optimisation is saving in production.
	CyclesSkipped uint64 `json:"cycles_skipped"`

	Store runner.Counters `json:"store"`
}

// partialInfo is the wire form of *runner.PartialError.
type partialInfo struct {
	Done     int          `json:"done"`
	Total    int          `json:"total"`
	Finished []runner.Key `json:"finished,omitempty"`
	Aborted  []runner.Key `json:"aborted,omitempty"`
	Cause    string       `json:"cause"`
}

// toPartialInfo flattens a *PartialError for the wire.
func toPartialInfo(pe *runner.PartialError) *partialInfo {
	return &partialInfo{
		Done:     pe.Done,
		Total:    pe.Total,
		Finished: pe.Finished,
		Aborted:  pe.Aborted,
		Cause:    pe.Err.Error(),
	}
}

// partialError rebuilds the typed error on the client side, re-identifying
// the ubiquitous context causes so errors.Is works across the wire.
func (p *partialInfo) partialError() *runner.PartialError {
	var cause error
	switch p.Cause {
	case context.Canceled.Error():
		cause = context.Canceled
	case context.DeadlineExceeded.Error():
		cause = context.DeadlineExceeded
	default:
		cause = errors.New(p.Cause)
	}
	return &runner.PartialError{
		Done:     p.Done,
		Total:    p.Total,
		Finished: p.Finished,
		Aborted:  p.Aborted,
		Err:      cause,
	}
}
