package runner

import (
	"bytes"
	"context"

	"rsepsim/internal/metrics"
	"rsepsim/internal/workload"
)

// SliceProgress describes one resolved slice of a sliced job. Resumed slices
// were answered by the store (no simulation); the rest simulated.
type SliceProgress struct {
	Index   int // index of the owning job in the submitted batch
	Slice   int // 0-based slice number
	Slices  int // total slices of the job
	Resumed bool
}

// sliceTargets returns the cumulative measured-instruction boundaries of a
// K-slice decomposition: targets[k] is where slice k stops. The chunks are
// Measure/K with the remainder folded into the last slice.
func sliceTargets(measure uint64, slices uint32) []uint64 {
	chunk := measure / uint64(slices)
	targets := make([]uint64, slices)
	for k := range targets {
		targets[k] = uint64(k+1) * chunk
	}
	targets[len(targets)-1] = measure
	return targets
}

// runSliced executes a sliced job: each slice is looked up in the store
// first; misses simulate, resuming from the previous boundary's checkpoint
// when one exists and fast-forwarding from the beginning when none does. The
// crucial invariant is that every slice runs to a *cumulative* commit target,
// so the stop cycles — and therefore every counter — are exactly those of a
// monolithic run, and the merged result is byte-identical to it.
//
// notify, when non-nil, observes every slice resolution in order.
func (s *Scheduler) runSliced(ctx context.Context, j Job, notify func(slice int, resumed bool)) (*metrics.Stats, error) {
	targets := sliceTargets(j.Measure, j.Slices)
	if targets[0] == 0 {
		// Degenerate grid (validation refuses it at the wire; direct API
		// callers get the monolithic path instead of zero-length slices).
		return s.exec(ctx, j)
	}
	prof, err := workload.ByName(j.Bench)
	if err != nil {
		return nil, err
	}
	cfg := j.Config.Clone()
	cfg.Seed = j.Seed
	cfgHash := cfg.SeedlessHash()
	ss, _ := s.store.(SliceStore)

	// One pooled generator serves every core the job positions: freshSrc
	// rewinds it to the job's first instruction.
	var gen *workload.Gen
	freshSrc := func() *workload.Gen {
		if gen == nil {
			gen = getGen(prof, j.Seed)
		} else {
			gen.Reset(prof, j.Seed)
		}
		return gen
	}
	defer func() {
		if gen != nil {
			gens.Put(gen)
		}
	}()

	var merged metrics.Stats
	var core *pooledCore
	release := func() {
		if core != nil {
			putCore(core)
			core = nil
		}
	}
	defer release()

	resolve := func(k int, resumed bool) {
		if resumed {
			s.slicesResumed.Add(1)
		} else {
			s.slicesRun.Add(1)
		}
		if notify != nil {
			notify(k, resumed)
		}
	}

	for k := range targets {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		var start uint64
		if k > 0 {
			start = targets[k-1]
		}
		end := targets[k]
		sk := SliceKey{Bench: j.Bench, ConfigHash: cfgHash, Seed: j.Seed,
			Warmup: j.Warmup, Start: start, End: end}

		if ss != nil {
			if delta, ok := ss.GetSlice(sk); ok {
				// A live core is positioned at start, not end; it cannot
				// serve the next slice, so it goes back to the pool.
				release()
				merged.Merge(delta)
				resolve(k, true)
				continue
			}
		}

		if core == nil {
			core = coreFor(cfg, freshSrc())
			core.SetCancel(ctx.Done())
			restored := false
			if k > 0 && ss != nil {
				ck := CheckpointKey{Bench: j.Bench, ConfigHash: cfgHash,
					Seed: j.Seed, Warmup: j.Warmup, At: start}
				if blob, ok := ss.GetCheckpoint(ck); ok {
					// coreFor pulled nothing from gen, so it is still at
					// the first instruction, as Restore requires.
					if err := core.Restore(cfg, gen, bytes.NewReader(blob)); err == nil {
						restored = true
					} else {
						// Damaged or mismatched blob: rebuild from scratch.
						// ResetFor rewrites every table, so the half-restored
						// state cannot leak.
						core.ResetFor(cfg, freshSrc())
						core.SetCancel(ctx.Done())
					}
				}
			}
			if !restored {
				// Fast-forward from the beginning: warmup, then run to the
				// slice's start boundary discarding (re-deriving) the prefix.
				core.Run(j.Warmup)
				if ctx.Err() != nil {
					return nil, context.Cause(ctx)
				}
				core.ResetStats()
				if start > 0 {
					core.Run(start)
					if ctx.Err() != nil {
						return nil, context.Cause(ctx)
					}
				}
			}
		}

		prev := *core.Stats()
		if cur := prev.Committed; cur < end {
			core.Run(end - cur)
			if ctx.Err() != nil {
				return nil, context.Cause(ctx)
			}
		}
		after := *core.Stats()
		delta := after.Sub(&prev)
		merged.Merge(&delta)
		if ss != nil {
			ss.PutSlice(sk, &delta)
			// Checkpoint every boundary, the final one included — that is
			// what lets a later submission extend this Measure. The store
			// only borrows the bytes, so the core's buffer is reused.
			core.ckpt.Reset()
			if err := core.Checkpoint(&core.ckpt); err == nil {
				ss.PutCheckpoint(CheckpointKey{Bench: j.Bench, ConfigHash: cfgHash,
					Seed: j.Seed, Warmup: j.Warmup, At: end}, core.ckpt.Bytes())
			}
		}
		resolve(k, false)
	}
	return &merged, nil
}
