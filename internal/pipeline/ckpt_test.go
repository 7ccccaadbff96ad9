package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"

	"rsepsim/internal/ckpt"
	"rsepsim/internal/config"
	"rsepsim/internal/rsep"
	"rsepsim/internal/trace"
	"rsepsim/internal/vpred"
	"rsepsim/internal/workload"
)

// checkpointCases are the runs the checkpoint tests pause and restore: the
// golden configurations on their golden benchmarks, plus aliasSource for
// the store sets.
func checkpointCases() []struct {
	name string
	cfg  *config.Config
	src  func() trace.Source
} {
	bench := func(name string) func() trace.Source {
		return func() trace.Source { return workload.New(workload.MustByName(name), 7) }
	}
	return []struct {
		name string
		cfg  *config.Config
		src  func() trace.Source
	}{
		{"baseline", config.TableI(), bench("mcf")},
		{"rsep-realistic", config.TableI().WithRSEP(rsep.Realistic()), bench("hmmer")},
		{"rsep-vp", config.TableI().WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP()), bench("mcf")},
		{"storesets", config.TableI(), func() trace.Source { return &aliasSource{} }},
	}
}

// TestCheckpointRoundTrip is the checkpoint contract: pausing a run at a cycle
// boundary, serializing the core, restoring it into a *different* core object
// and running to the same cumulative commit target must produce statistics
// byte-identical to an uninterrupted run. The cases mirror the golden runs so
// every serialized component — predictors, caches, TLBs, DRAM banks, store
// sets, the dyn arena, the wakeup machinery, the trace window and the RNG
// position — is exercised with live in-flight state. The store-sets case
// runs aliasSource, whose trained SSIT decides how many loads still violate
// after the pause.
func TestCheckpointRoundTrip(t *testing.T) {
	const warmup, half, measure = 10_000, 10_000, 20_000
	for _, tc := range checkpointCases() {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src

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

// TestCheckpointBytesPinned pins the checkpoint encoding: the SHA-256 of
// each checkpointCases blob taken at a fixed pause point, and that restoring
// a blob into a second core and checkpointing it again reproduces the same
// bytes. POD sections are dumped in the native memory layout, so the hashes
// hold on amd64 only.
func TestCheckpointBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("checkpoint bytes depend on the native memory layout; pinned on amd64")
	}
	want := map[string]string{
		"baseline":       "e83e6f90fa3fc5197368c34e1298d9ea0c870bbb1c20942666a6fbe25dda02d2",
		"rsep-realistic": "478cf21adcd13e3d16043d36f4d450f486cc7a107cf4bcd2de39b93180c321b4",
		"rsep-vp":        "56ffb53f2b76a71ad889d694fce2a4d2fd8d39307993d0d69bda27532336f493",
		"storesets":      "81ed27162e51f6d26507d3109b048637a66fddff99b6636cc2b51e214010f5df",
	}
	for _, tc := range checkpointCases() {
		t.Run(tc.name, func(t *testing.T) {
			core := New(tc.cfg, tc.src())
			core.Run(10_000)
			core.ResetStats()
			core.Run(10_000)
			var blob bytes.Buffer
			if err := core.Checkpoint(&blob); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want[tc.name] {
				t.Errorf("checkpoint of %d bytes has SHA-256 %s, want %s", blob.Len(), got, want[tc.name])
			}

			second, err := NewFromCheckpoint(tc.cfg, tc.src(), bytes.NewReader(blob.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := second.Checkpoint(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), blob.Bytes()) {
				t.Errorf("checkpoint of a restored core differs: %d bytes, want %d", again.Len(), blob.Len())
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
// same geometry, over one generator rewound per op as the sliced runner
// rewinds its own. One untimed round trip first grows the blob buffer and
// the second core's tables, so an op times a warm boundary and its
// allocation counts repeat from run to run. ckpt_bytes is the blob size.
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
			prof := workload.MustByName("mcf")
			core := New(cfg, workload.New(prof, 1))
			core.Run(30_000)
			core.ResetStats()
			core.Run(30_000)
			gen := workload.New(prof, 1)
			other := New(cfg, gen)
			var blob bytes.Buffer
			roundTrip := func() {
				blob.Reset()
				if err := core.Checkpoint(&blob); err != nil {
					b.Fatal(err)
				}
				gen.Reset(prof, 1)
				if err := other.Restore(cfg, gen, bytes.NewReader(blob.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			// Restore hashes its config through sync.Pools, which cache
			// per P and are emptied by a collection: an op on another P
			// than the warm round trip, or after a collection, allocates
			// pool state again. One P (the round trip is single-threaded)
			// and a collection of the set-up's garbage before the warm
			// round trip keep the allocation counts exact.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			runtime.GC()
			roundTrip()
			b.ReportAllocs()
			for b.Loop() {
				roundTrip()
			}
			b.ReportMetric(float64(blob.Len()), "ckpt_bytes")
		})
	}
}

// TestDamagedCheckpointRebuildsNothing pins that a restore verifies the
// checksum before any work sized by decoded values. Each case flips one bit
// of a value that sizes such work: the RNG position (draws to replay) and
// the replay window's head and size (instructions to redraw from the
// source). Rebuilding from any of them would run for minutes or exhaust
// memory; the restore must instead fail with ckpt.ErrChecksum at once.
func TestDamagedCheckpointRebuildsNothing(t *testing.T) {
	cfg := config.TableI().WithRSEP(rsep.Realistic())
	src := func() trace.Source { return workload.New(workload.MustByName("hmmer"), 7) }
	core := New(cfg, src())
	core.Run(20_000)
	var blob bytes.Buffer
	if err := core.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	// The RNG position follows the stream header (magic, version and two
	// probes), the length-prefixed geometry key and the seed; the replay
	// window's head and size follow its section tag.
	steps := (8 + 4 + 8 + 8) + (8 + len(core.cfgKey)) + 8
	replayTag := append(binary.LittleEndian.AppendUint64(nil, 6), "replay"...)
	head := bytes.Index(blob.Bytes(), replayTag) + len(replayTag)
	if head < len(replayTag) {
		t.Fatal("no replay section in the checkpoint")
	}
	cases := []struct {
		name     string
		off, bit int
	}{
		{"rng-steps", steps, 44},
		{"replay-head", head, 36},
		{"replay-size", head + 8, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := bytes.Clone(blob.Bytes())
			bad[tc.off+tc.bit/8] ^= 1 << (tc.bit % 8)
			warm := New(cfg, src())
			fresh := src()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := warm.Restore(cfg, fresh, bytes.NewReader(bad))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ckpt.ErrChecksum) {
				t.Errorf("Restore = %v, want ckpt.ErrChecksum", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("refused restore allocated %d bytes, want < 1 MiB", got)
			}
		})
	}
}
