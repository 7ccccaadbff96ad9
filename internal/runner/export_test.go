package runner

import "rsepsim/internal/workload"

// RestoreAt resumes j at boundary at the way runSliced resumes a slice: it
// rewinds gen to j's first instruction, takes a pooled core for j's config
// over it, restores the checkpoint ss holds there, and returns the core to
// the pool. It reports whether the core restored. The external tests use it
// to measure a restore over the stores of package store, which imports this
// one.
func RestoreAt(ss SliceStore, j Job, at uint64, gen *workload.Gen) bool {
	cfg := j.Config.Clone()
	cfg.Seed = j.Seed
	gen.Reset(workload.MustByName(j.Bench), j.Seed)
	core := coreFor(cfg, gen)
	found, err := core.restore(ss, CheckpointKey{Bench: j.Bench, ConfigHash: cfg.SeedlessHash(),
		Seed: j.Seed, Warmup: j.Warmup, At: at}, cfg, gen)
	putCore(core)
	return found && err == nil
}
