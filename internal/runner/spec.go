package runner

import (
	"fmt"
	"sort"

	"rsepsim/internal/config"
	"rsepsim/internal/rsep"
	"rsepsim/internal/vpred"
	"rsepsim/internal/workload"
)

// JobSpec is the serializable wire form of a Job: what a client submits to a
// serving daemon, and what the daemon validates before admitting it to the
// scheduler. The configuration is carried either inline (Config) or by
// preset name (Preset) — exactly one of the two must be set.
type JobSpec struct {
	Bench   string         `json:"bench"`
	Config  *config.Config `json:"config,omitempty"`
	Preset  string         `json:"preset,omitempty"`
	Seed    int64          `json:"seed"`
	Warmup  uint64         `json:"warmup"`
	Measure uint64         `json:"measure"`
	// Slices > 1 decomposes the measurement into checkpoint-chained
	// sub-runs (see Job.Slices); 0 and 1 both mean monolithic.
	Slices uint32 `json:"slices,omitempty"`
}

// BatchSpec is the wire form of one batch submission: the unit of admission
// for the scheduler and the body of POST /v1/batches.
type BatchSpec struct {
	Jobs []JobSpec `json:"jobs"`
	// Parallelism bounds how many of this batch's jobs run concurrently;
	// <= 0 means "no per-batch bound" (the scheduler's global bound still
	// applies).
	Parallelism int `json:"parallelism,omitempty"`
}

// MaxBatchJobs bounds one batch submission; a sweep larger than this should
// be split, so a single malformed request cannot queue unbounded work.
const MaxBatchJobs = 1 << 16

// MaxJobSlices bounds the slice count of one job: beyond this the per-slice
// checkpoint traffic dominates the simulation it is meant to amortize.
const MaxJobSlices = 4096

// presets maps wire-level configuration names to constructors. Presets keep
// hand-written submissions (curl, smoke tests) free of the full Table I
// machine description; programmatic clients send the Config inline.
var presets = map[string]func() *config.Config{
	"table1":                config.TableI,
	"table1+zeropred":       func() *config.Config { return config.TableI().WithZeroPred() },
	"table1+moveelim":       func() *config.Config { return config.TableI().WithMoveElim() },
	"table1+rsep":           func() *config.Config { return config.TableI().WithRSEP(rsep.Ideal()) },
	"table1+rsep-realistic": func() *config.Config { return config.TableI().WithRSEP(rsep.Realistic()) },
	"table1+vp":             func() *config.Config { return config.TableI().WithVP(vpred.BeBoP()) },
	"table1+rsep+vp": func() *config.Config {
		return config.TableI().WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP())
	},
}

// Presets returns the recognized preset names, sorted.
func Presets() []string {
	out := make([]string, 0, len(presets))
	for name := range presets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Validate checks that the spec names a runnable simulation: a known
// benchmark, exactly one configuration source (inline or a known preset),
// and a non-empty measurement segment.
func (s JobSpec) Validate() error {
	if _, err := workload.ByName(s.Bench); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	switch {
	case s.Config == nil && s.Preset == "":
		return fmt.Errorf("spec: job %q has neither config nor preset", s.Bench)
	case s.Config != nil && s.Preset != "":
		return fmt.Errorf("spec: job %q has both config and preset", s.Bench)
	case s.Preset != "":
		if _, ok := presets[s.Preset]; !ok {
			return fmt.Errorf("spec: unknown preset %q (known: %v)", s.Preset, Presets())
		}
	default:
		// Inline configs come off the wire from arbitrary clients; a
		// structurally invalid one must be a 400, not a pipeline panic.
		if err := s.Config.Validate(); err != nil {
			return fmt.Errorf("spec: job %q: %w", s.Bench, err)
		}
	}
	if s.Measure == 0 {
		return fmt.Errorf("spec: job %q measures zero instructions", s.Bench)
	}
	if s.Slices > MaxJobSlices {
		return fmt.Errorf("spec: job %q wants %d slices, limit %d", s.Bench, s.Slices, MaxJobSlices)
	}
	if s.Slices > 1 && s.Measure < uint64(s.Slices) {
		return fmt.Errorf("spec: job %q measures %d instructions across %d slices (need at least one per slice)", s.Bench, s.Measure, s.Slices)
	}
	return nil
}

// Job resolves the spec into a runnable Job. The configuration is deep-copied
// so the caller's spec (possibly shared or reused) is never aliased by the
// scheduler.
func (s JobSpec) Job() (Job, error) {
	if err := s.Validate(); err != nil {
		return Job{}, err
	}
	cfg := s.Config
	if s.Preset != "" {
		cfg = presets[s.Preset]()
	} else {
		cfg = cfg.Clone()
	}
	return Job{Bench: s.Bench, Config: cfg, Seed: s.Seed, Warmup: s.Warmup, Measure: s.Measure, Slices: s.Slices}, nil
}

// Spec returns the job's wire form with an independent copy of the config.
func (j Job) Spec() JobSpec {
	return JobSpec{
		Bench:   j.Bench,
		Config:  j.Config.Clone(),
		Seed:    j.Seed,
		Warmup:  j.Warmup,
		Measure: j.Measure,
		Slices:  j.Slices,
	}
}

// Validate checks every job plus the batch-level bounds.
func (b BatchSpec) Validate() error {
	if len(b.Jobs) == 0 {
		return fmt.Errorf("spec: empty batch")
	}
	if len(b.Jobs) > MaxBatchJobs {
		return fmt.Errorf("spec: batch of %d jobs exceeds the %d-job limit", len(b.Jobs), MaxBatchJobs)
	}
	for i, j := range b.Jobs {
		if err := j.Validate(); err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
	}
	return nil
}

// Batch resolves the spec into a schedulable Batch.
func (b BatchSpec) Batch() (Batch, error) {
	if err := b.Validate(); err != nil {
		return Batch{}, err
	}
	jobs := make([]Job, len(b.Jobs))
	for i, s := range b.Jobs {
		j, err := s.Job()
		if err != nil {
			return Batch{}, fmt.Errorf("job %d: %w", i, err)
		}
		jobs[i] = j
	}
	return Batch{Jobs: jobs, Parallelism: b.Parallelism}, nil
}

// Spec returns the batch's wire form.
func (b Batch) Spec() BatchSpec {
	specs := make([]JobSpec, len(b.Jobs))
	for i, j := range b.Jobs {
		specs[i] = j.Spec()
	}
	return BatchSpec{Jobs: specs, Parallelism: b.Parallelism}
}
