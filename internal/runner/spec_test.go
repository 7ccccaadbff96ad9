package runner

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rsepsim/internal/config"
	"rsepsim/internal/rsep"
)

// TestSpecRoundTrip: Job → Spec → JSON → Spec → Job preserves the key, and
// the rebuilt config is an independent copy.
func TestSpecRoundTrip(t *testing.T) {
	j := Job{
		Bench:   "mcf",
		Config:  config.TableI().WithRSEP(rsep.Realistic()),
		Seed:    9,
		Warmup:  1000,
		Measure: 2000,
	}
	raw, err := json.Marshal(j.Spec())
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	j2, err := back.Job()
	if err != nil {
		t.Fatal(err)
	}
	if j.Key() != j2.Key() {
		t.Fatalf("round trip changed the key:\n%+v\n%+v", j.Key(), j2.Key())
	}
	// Decoupling: mutating the resolved job's config must not touch the spec.
	j2.Config.ROBSize = 1
	j3, err := back.Job()
	if err != nil {
		t.Fatal(err)
	}
	if j3.Config.ROBSize == 1 {
		t.Fatal("spec aliased the job it resolved")
	}
}

// TestSpecPresetsMatchInlineConfigs: a preset resolves to exactly the key an
// inline config produces, so curl-submitted jobs share cache entries with
// CLI runs.
func TestSpecPresetsMatchInlineConfigs(t *testing.T) {
	cases := map[string]*config.Config{
		"table1":      config.TableI(),
		"table1+rsep": config.TableI().WithRSEP(rsep.Ideal()),
	}
	for preset, cfg := range cases {
		byPreset := JobSpec{Bench: "mcf", Preset: preset, Seed: 1, Warmup: 10, Measure: 20}
		byConfig := JobSpec{Bench: "mcf", Config: cfg, Seed: 1, Warmup: 10, Measure: 20}
		jp, err := byPreset.Job()
		if err != nil {
			t.Fatal(err)
		}
		jc, err := byConfig.Job()
		if err != nil {
			t.Fatal(err)
		}
		if jp.Key() != jc.Key() {
			t.Fatalf("preset %q resolves to a different key than its config", preset)
		}
	}
	if len(Presets()) < 5 {
		t.Fatalf("Presets() = %v, suspiciously few", Presets())
	}
}

// TestSpecSlicesRoundTrip: Slices survives Job → Spec → JSON → Spec → Job,
// serializes under the documented wire name, and stays out of the cache key
// (slicing is an execution strategy, not a different simulation).
func TestSpecSlicesRoundTrip(t *testing.T) {
	j := Job{
		Bench:   "mcf",
		Config:  config.TableI(),
		Seed:    4,
		Warmup:  100,
		Measure: 1000,
		Slices:  8,
	}
	raw, err := json.Marshal(j.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"slices":8`)) {
		t.Fatalf("wire form does not carry slices: %s", raw)
	}
	var back JobSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	j2, err := back.Job()
	if err != nil {
		t.Fatal(err)
	}
	if j2.Slices != 8 {
		t.Fatalf("Slices = %d after round trip, want 8", j2.Slices)
	}
	mono := j
	mono.Slices = 0
	if j.Key() != mono.Key() {
		t.Fatal("Slices leaked into the cache key; sliced and monolithic runs would not share results")
	}
	// omitempty: a monolithic job's wire form should not mention slices.
	monoRaw, err := json.Marshal(mono.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(monoRaw, []byte("slices")) {
		t.Fatalf("monolithic wire form mentions slices: %s", monoRaw)
	}
}

// TestSpecValidation rejects everything the daemon must not admit.
func TestSpecValidation(t *testing.T) {
	good := JobSpec{Bench: "mcf", Preset: "table1", Seed: 1, Warmup: 10, Measure: 20}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"unknown bench", JobSpec{Bench: "nope", Preset: "table1", Measure: 1}, "nope"},
		{"no config", JobSpec{Bench: "mcf", Measure: 1}, "neither config nor preset"},
		{"both configs", JobSpec{Bench: "mcf", Preset: "table1", Config: config.TableI(), Measure: 1}, "both config and preset"},
		{"unknown preset", JobSpec{Bench: "mcf", Preset: "table9", Measure: 1}, "unknown preset"},
		{"zero measure", JobSpec{Bench: "mcf", Preset: "table1"}, "zero instructions"},
		{"too many slices", JobSpec{Bench: "mcf", Preset: "table1", Measure: 1 << 20, Slices: MaxJobSlices + 1}, "limit"},
		{"more slices than instructions", JobSpec{Bench: "mcf", Preset: "table1", Measure: 3, Slices: 4}, "at least one per slice"},
	}
	for _, tc := range bad {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	if err := (BatchSpec{}).Validate(); err == nil {
		t.Error("empty batch accepted")
	}
	huge := BatchSpec{Jobs: make([]JobSpec, MaxBatchJobs+1)}
	if err := huge.Validate(); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized batch: err = %v", err)
	}
	mixed := BatchSpec{Jobs: []JobSpec{good, {Bench: "mcf", Measure: 1}}}
	if err := mixed.Validate(); err == nil || !strings.Contains(err.Error(), "job 1") {
		t.Errorf("batch validation does not name the offending job: %v", err)
	}
}

// TestBatchSpecRoundTrip: Batch → Spec → Batch preserves jobs and policy.
func TestBatchSpecRoundTrip(t *testing.T) {
	b := Batch{
		Jobs:        []Job{stubJob(1), stubJob(2)},
		Parallelism: 2,
	}
	back, err := b.Spec().Batch()
	if err != nil {
		t.Fatal(err)
	}
	if back.Parallelism != 2 || len(back.Jobs) != 2 {
		t.Fatalf("policy lost in round trip: %+v", back)
	}
	for i := range b.Jobs {
		if b.Jobs[i].Key() != back.Jobs[i].Key() {
			t.Fatalf("job %d key changed in round trip", i)
		}
	}
}
