package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rsepsim/internal/experiments"
	"rsepsim/internal/metrics"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		want   int
		wantOK bool
	}{
		{19, 0, false}, // the median has only 9 samples beyond it
		{20, 500, true},
		{99, 500, true}, // p90 is rank 90: 9 beyond
		{100, 900, true},
		{999, 900, true}, // p99 is rank 990: 9 beyond
		{1000, 990, true},
		{10000, 999, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.wantOK {
			t.Errorf("highestPercentile(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.wantOK)
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := nearestRank(xs, 500); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := nearestRank(xs, 900); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		// Two workers overlap inside the parent: together they cover
		// [10, 60). A third child runs past the parent's end, and only
		// [90, 100) of it counts.
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild is the child's business, not the parent's.
		{ID: 5, Parent: 2, Start: 15, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 40, 2: 10, 3: 30, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := selfByName([]span{{ID: 1, Name: "a", Start: 0, End: 10}, {ID: 2, Parent: 1, Name: "a", Start: 5, End: 7}}); got["a"] != 10 {
		t.Errorf("self time by name = %d, want 10 (8 for the outer span, 2 for the inner)", got["a"])
	}
}

func TestDigestRejectsOneChangedCounter(t *testing.T) {
	stats := []*metrics.Stats{
		{Cycles: 1000, Committed: 800, L2Misses: 7, DRAMReads: 3, DRAMLatencySum: 600, AvgDRAMLatency: 200},
		{Cycles: 900, Committed: 800, DistPred: 40},
	}
	ref := hashAll(stats)

	changed := *stats[0]
	changed.L2Misses++
	got := hashAll([]*metrics.Stats{&changed, stats[1]})
	if n := mismatches(ref, got); n != 1 {
		t.Fatalf("one changed counter: %d mismatches, want 1", n)
	}
	if digest(got) == digest(ref) {
		t.Fatal("one changed counter left the digest unchanged")
	}

	// SkippedCycles is operational, outside the Stats JSON: fast-forward on
	// or off must not count as an output change.
	skipped := *stats[0]
	skipped.SkippedCycles = 123
	if n := mismatches(ref, hashAll([]*metrics.Stats{&skipped, stats[1]})); n != 0 {
		t.Fatalf("SkippedCycles changed the output check: %d mismatches", n)
	}
	if n := mismatches(ref, ref[:1]); n != 1 {
		t.Fatalf("a missing job: %d mismatches, want 1", n)
	}
}

// tinyWarm is a figs-warm workload small enough for a unit test.
func tinyWarm(t *testing.T) *figs {
	t.Helper()
	sets := []experiments.Options{{Benchmarks: []string{"hmmer"}, Segments: 1, Warmup: 200, Measure: 300, BaseSeed: 3}}
	f, err := newFigs(sets, nil, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.setup(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWarmPassSimulatesNothing(t *testing.T) {
	f := tinyWarm(t)
	p, err := f.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sims := p.counts["runner.simulations"]; sims != 0 {
		t.Fatalf("runner.simulations = %v on a complete warm store", sims)
	}
	for i, bad := range p.bad {
		if bad {
			t.Fatalf("job %d flagged on a complete warm store", i)
		}
	}
	if n := mismatches(f.reference(), p.hashes); n != 0 {
		t.Fatalf("%d warm results differ from the fill", n)
	}
}

func TestWarmAssertionFiresOnMissingKey(t *testing.T) {
	f := tinyWarm(t)
	entries, err := filepath.Glob(filepath.Join(f.fill, "v1", "*", "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no store entries in %s: %v", f.fill, err)
	}
	if err := os.Remove(entries[0]); err != nil {
		t.Fatal(err)
	}
	p, err := f.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sims := p.counts["runner.simulations"]; sims != 1 {
		t.Fatalf("runner.simulations = %v with one key missing, want 1", sims)
	}
	flagged := 0
	for _, bad := range p.bad {
		if bad {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("a warm pass that simulated flagged no job")
	}
}

// TestSpecsMatchBenchmarkJSON keeps BENCHMARK.json and the metric specs the
// program prints in step.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, s := range want {
			if got[i].Name != s.name || got[i].Unit != s.unit || got[i].Better != s.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %s %s %s", kind, i, got[i], s.name, s.unit, s.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
