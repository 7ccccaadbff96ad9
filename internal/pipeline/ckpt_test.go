package pipeline

import (
	"bytes"
	"testing"

	"rsepsim/internal/config"
	"rsepsim/internal/rsep"
	"rsepsim/internal/vpred"
	"rsepsim/internal/workload"
)

// TestCheckpointRoundTrip is the checkpoint contract: pausing a run at a cycle
// boundary, serializing the core, restoring it into a *different* core object
// and running to the same cumulative commit target must produce statistics
// byte-identical to an uninterrupted run. The cases mirror the golden runs so
// every serialized component — predictors, caches, TLBs, DRAM banks, store
// sets, the dyn arena, the wakeup machinery, the trace window and the RNG
// position — is exercised with live in-flight state.
func TestCheckpointRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		bench string
		cfg   *config.Config
	}{
		{"baseline", "mcf", config.TableI()},
		{"rsep-realistic", "hmmer", config.TableI().WithRSEP(rsep.Realistic())},
		{"rsep-vp", "mcf", config.TableI().WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP())},
	}
	const warmup, half, measure = 10_000, 10_000, 20_000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := func() *workload.Gen {
				return workload.New(workload.MustByName(tc.bench), 7)
			}

			mono := New(tc.cfg, src())
			mono.Run(warmup)
			mono.ResetStats()
			mono.Run(measure)
			want := statsJSON(t, mono)

			first := New(tc.cfg, src())
			first.Run(warmup)
			first.ResetStats()
			first.Run(half)
			var blob bytes.Buffer
			if err := first.Checkpoint(&blob); err != nil {
				t.Fatal(err)
			}

			second, err := NewFromCheckpoint(tc.cfg, src(), bytes.NewReader(blob.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			// Cumulative target: the paused run may have overshot its own
			// slice target at a cycle boundary, so the remainder is relative
			// to what actually committed, exactly as the sliced runner does.
			second.Run(measure - second.Stats().Committed)
			if got := statsJSON(t, second); !bytes.Equal(got, want) {
				t.Errorf("restored run diverges from uninterrupted run\n got: %s\nwant: %s", got, want)
			}

			// Restoring into a warm core of the same geometry (the worker
			// path) must behave identically to NewFromCheckpoint.
			warm := New(tc.cfg, src())
			warm.Run(5_000)
			if err := warm.Restore(tc.cfg, src(), bytes.NewReader(blob.Bytes())); err != nil {
				t.Fatal(err)
			}
			warm.Run(measure - warm.Stats().Committed)
			if got := statsJSON(t, warm); !bytes.Equal(got, want) {
				t.Errorf("warm-restored run diverges from uninterrupted run\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestCheckpointRefusals pins the refusal contract: a checkpoint only
// restores under the exact machine geometry and seed it was taken with, and
// any corruption surfaces as an error, never as silent state.
func TestCheckpointRefusals(t *testing.T) {
	cfg := config.TableI()
	core := New(cfg, workload.New(workload.MustByName("mcf"), 7))
	core.Run(5_000)
	var blob bytes.Buffer
	if err := core.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}

	fresh := func() *workload.Gen { return workload.New(workload.MustByName("mcf"), 7) }

	bigger := config.TableI()
	bigger.ROBSize *= 2
	other := New(bigger, fresh())
	if err := other.Restore(bigger, fresh(), bytes.NewReader(blob.Bytes())); err == nil {
		t.Error("Restore accepted a checkpoint from a different machine geometry")
	}

	reseeded := config.TableI()
	reseeded.Seed = 12345
	same := New(cfg, fresh())
	if err := same.Restore(reseeded, fresh(), bytes.NewReader(blob.Bytes())); err == nil {
		t.Error("Restore accepted a checkpoint taken under a different seed")
	}

	// Flip one byte near the end: structural reads still parse, so the
	// damage must be caught by the checksum trailer.
	bad := append([]byte(nil), blob.Bytes()...)
	bad[len(bad)-16] ^= 0x40
	if _, err := NewFromCheckpoint(cfg, fresh(), bytes.NewReader(bad)); err == nil {
		t.Error("NewFromCheckpoint accepted a corrupted checkpoint")
	}

	// Truncation must error, not restore a prefix.
	if _, err := NewFromCheckpoint(cfg, fresh(), bytes.NewReader(blob.Bytes()[:blob.Len()-9])); err == nil {
		t.Error("NewFromCheckpoint accepted a truncated checkpoint")
	}
}

// BenchmarkCheckpointRoundTrip measures the per-boundary cost of sliced
// execution: Checkpoint of a core at the 30k+30k mcf boundary the sliced
// daemon workload uses, then Restore of the blob into a second core of the
// same geometry. ckpt_bytes is the blob size.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	base := config.TableI()
	cases := []struct {
		name string
		cfg  *config.Config
	}{
		{"baseline", base},
		{"rsep", base.WithRSEP(rsep.Ideal())},
		{"rsep_vp", base.WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP())},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := tc.cfg.Clone()
			cfg.Seed = 1
			src := func() *workload.Gen { return workload.New(workload.MustByName("mcf"), 1) }
			core := New(cfg, src())
			core.Run(30_000)
			core.ResetStats()
			core.Run(30_000)
			other := New(cfg, src())
			var blob bytes.Buffer
			b.ReportAllocs()
			for b.Loop() {
				blob.Reset()
				if err := core.Checkpoint(&blob); err != nil {
					b.Fatal(err)
				}
				if err := other.Restore(cfg, src(), bytes.NewReader(blob.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(blob.Len()), "ckpt_bytes")
		})
	}
}
