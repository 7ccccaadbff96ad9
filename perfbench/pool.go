package main

import (
	"context"
	"sync"

	"rsepsim/internal/config"
	"rsepsim/internal/runner"
	"rsepsim/internal/uarch"
)

// The in-process core pool (runner/corepool.go) keeps up to eight idle
// cores, one per geometry, across jobs. A pass that starts with a different
// pool content pays a different number of pipeline.New calls, so before
// every timed pass the benchmark puts the pool into one canonical state:
//
//	it holds exactly the idle cores of the first eight distinct geometries
//	of the workload, in the order the workload first submits them.
//
// The pool is private to runner, so the state is reached through the public
// API only. Every geometry of the workload is checked out at once — one
// runner.SimulateSource per geometry over a source that blocks on its first
// instruction — which leaves none of them in the pool. The sources are then
// released one at a time in workload order; each simulation ends at once
// (its source is empty) and returns its core, and the pool keeps the first
// eight. The pool only ever holds the workload's own geometries, since
// nothing else in the process goes through it.

const corePoolMax = 8 // runner's corePoolMax

// heldSource blocks its first Next until released, then reports the end of
// the stream.
type heldSource struct {
	started, release chan struct{}
	once             sync.Once
}

func (s *heldSource) Next() (uarch.Inst, bool) {
	s.once.Do(func() { close(s.started) })
	<-s.release
	return uarch.Inst{}, false
}

// resetCorePool puts runner's core pool into the canonical state for the
// given geometries (duplicates by SeedlessHash are ignored).
func resetCorePool(cfgs []*config.Config) {
	geoms := distinctGeometries(cfgs)
	srcs := make([]*heldSource, len(geoms))
	done := make([]chan struct{}, len(geoms))
	for i, cfg := range geoms {
		src := &heldSource{started: make(chan struct{}), release: make(chan struct{})}
		srcs[i], done[i] = src, make(chan struct{})
		go func(cfg *config.Config, ch chan struct{}) {
			defer close(ch)
			_, _ = runner.SimulateSource(context.Background(), cfg, src, 1, 0)
		}(cfg, done[i])
		<-src.started // checked out: the pool no longer holds this geometry
	}
	for i := range geoms {
		close(srcs[i].release)
		<-done[i]
	}
}

// distinctGeometries returns the first config of each pool key, in order.
func distinctGeometries(cfgs []*config.Config) []*config.Config {
	seen := make(map[string]bool)
	var out []*config.Config
	for _, c := range cfgs {
		k := c.SeedlessHash()
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}
