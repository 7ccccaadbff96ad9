package main

import (
	"math"
	"sort"
)

// metricSpec names one reported metric: its unit, which direction is better,
// and, for a per-layer metric, the end-to-end metric it should move and on
// which workload ("none" marks where it should not move). BENCHMARK.json
// lists the same names, units and directions; TestSpecsMatchBenchmarkJSON
// keeps the two in step.
type metricSpec struct {
	name, unit, better string
	moves              string
}

// endToEnd are the metrics a user of rsepsim feels, measured with tracing
// off. Each is reported on every workload and is never zero.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "job_p50_ms", unit: "ms", better: "lower"},
	{name: "job_p90_ms", unit: "ms", better: "lower"},
	{name: "heap_alloc_mb", unit: "MiB", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
}

// perLayer are the metrics of single layers, printed by the traced run. A
// layer that does no work on a workload reports 0 there.
var perLayer = []metricSpec{
	// Simulator throughput and the latency sample count behind job_p*_ms.
	{"sim_minsts_per_s", "Minst/s", "higher", "wall_s on figs-cold and daemon-sliced; none on figs-warm"},
	{"job_latency_samples", "count", "higher", "explains job_p50_ms and job_p90_ms on every workload"},
	{"trace.overhead_frac", "frac", "lower", "none: traced minus untraced wall_s over untraced wall_s"},

	// Host time, from the traced run.
	{"experiments.self_ms", "ms", "lower", "wall_s on figs-warm; none on figs-cold"},
	{"config.key_us", "us", "lower", "wall_s and job_p50_ms on figs-warm"},
	{"runner.queue_wait_ms_p50", "ms", "lower", "job_p50_ms on figs-cold"},
	{"runner.queue_wait_ms_p90", "ms", "lower", "job_p90_ms on figs-cold"},
	{"runner.worker_busy_frac", "frac", "higher", "wall_s on figs-cold"},
	{"pipeline.reset_ms", "ms", "lower", "heap_alloc_mb and wall_s on figs-cold"},
	{"pipeline.ns_per_inst.baseline", "ns", "lower", "wall_s on figs-cold and daemon-sliced; none on figs-warm"},
	{"pipeline.ns_per_inst.rsep", "ns", "lower", "wall_s on figs-cold and daemon-sliced; none on figs-warm"},
	{"pipeline.ns_per_inst.vp", "ns", "lower", "wall_s on figs-cold; none on figs-warm"},
	{"pipeline.ns_per_inst.rsep_vp", "ns", "lower", "wall_s on figs-cold and daemon-sliced; none on figs-warm"},
	{"pipeline.ns_per_inst.other", "ns", "lower", "wall_s on figs-cold; none on figs-warm"},
	{"pipeline.ns_per_cycle", "ns", "lower", "wall_s on figs-cold and daemon-sliced; none on figs-warm"},
	{"workload.ns_per_inst", "ns", "lower", "wall_s on figs-cold"},
	{"cache.ns_per_access", "ns", "lower", "wall_s on figs-cold, mostly through mcf"},
	{"cache.ns_per_fetch", "ns", "lower", "wall_s on figs-cold"},
	{"branch.ns_per_op", "ns", "lower", "wall_s on figs-cold"},
	{"rsep.dist_ns_per_op", "ns", "lower", "wall_s on figs-cold, RSEP jobs"},
	{"rsep.history_ns_per_op", "ns", "lower", "wall_s on figs-cold, RSEP jobs"},
	{"vpred.ns_per_op", "ns", "lower", "wall_s on figs-cold, VP jobs"},
	{"ckpt.write_ms", "ms", "lower", "wall_s on daemon-sliced; none on figs-*"},
	{"ckpt.write_ms.baseline", "ms", "lower", "wall_s on daemon-sliced; none on figs-*"},
	{"ckpt.write_ms.rsep", "ms", "lower", "wall_s on daemon-sliced; none on figs-*"},
	{"ckpt.write_ms.rsep_vp", "ms", "lower", "wall_s on daemon-sliced; none on figs-*"},
	{"ckpt.restore_ms", "ms", "lower", "wall_s on daemon-sliced; none on figs-*"},
	{"ckpt.restore_ms.baseline", "ms", "lower", "wall_s on daemon-sliced; none on figs-*"},
	{"ckpt.restore_ms.rsep", "ms", "lower", "wall_s on daemon-sliced; none on figs-*"},
	{"ckpt.restore_ms.rsep_vp", "ms", "lower", "wall_s on daemon-sliced; none on figs-*"},
	{"ckpt.kb", "KiB", "lower", "wall_s and peak_rss_mb on daemon-sliced; none on figs-*"},
	{"ckpt.kb.baseline", "KiB", "lower", "wall_s on daemon-sliced; none on figs-*"},
	{"ckpt.kb.rsep", "KiB", "lower", "wall_s on daemon-sliced; none on figs-*"},
	{"ckpt.kb.rsep_vp", "KiB", "lower", "wall_s on daemon-sliced; none on figs-*"},
	{"store.get_us_p50", "us", "lower", "wall_s and job_p50_ms on figs-warm"},
	{"store.get_us_p90", "us", "lower", "wall_s and job_p90_ms on figs-warm"},
	{"store.put_ms_p50", "ms", "lower", "wall_s on figs-cold (a small share) and daemon-sliced"},
	{"store.put_ms_p90", "ms", "lower", "wall_s on figs-cold (a small share) and daemon-sliced"},
	{"store.slice_put_ms", "ms", "lower", "wall_s on daemon-sliced"},
	{"store.ckpt_put_ms", "ms", "lower", "wall_s on daemon-sliced"},
	{"store.ckpt_get_ms", "ms", "lower", "wall_s on daemon-sliced"},
	{"store.ckpt_mb_written", "MiB", "lower", "wall_s on daemon-sliced"},
	{"serve.first_result_ms", "ms", "lower", "wall_s on daemon-sliced; none on figs-*"},
	{"serve.hit_us_per_job", "us", "lower", "wall_s on daemon-sliced; none on figs-*"},
	{"serve.overhead_frac", "frac", "lower", "wall_s on daemon-sliced; none on figs-*"},

	// Exact counts, which explain host-time moves.
	{"runner.dedup_ratio", "ratio", "lower", "explains wall_s on figs-cold"},
	{"runner.simulations", "count", "lower", "wall_s on figs-cold; must be 0 on figs-warm"},
	{"runner.slices_run", "count", "lower", "wall_s on daemon-sliced"},
	{"runner.slices_resumed", "count", "higher", "wall_s on daemon-sliced"},
	{"store.hit_ratio", "ratio", "higher", "wall_s on figs-cold and daemon-sliced"},

	// Simulated-model statistics: identical on every run of one seed.
	{"pipeline.cpi", "cyc/inst", "lower", "simulated time; moves host time only through event counts"},
	{"pipeline.skipped_cycle_frac", "frac", "higher", "pipeline.ns_per_cycle on figs-cold"},
	{"pipeline.squashes_pki", "1/kinst", "lower", "pipeline.ns_per_inst on figs-cold"},
	{"cache.l1d_mpki", "1/kinst", "lower", "cache.ns_per_access on figs-cold"},
	{"cache.l2_mpki", "1/kinst", "lower", "cache.ns_per_access on figs-cold"},
	{"cache.l3_mpki", "1/kinst", "lower", "cache.ns_per_access on figs-cold"},
	{"dram.avg_latency_cyc", "cyc", "lower", "pipeline.cpi on figs-cold"},
	{"branch.mpki", "1/kinst", "lower", "pipeline.squashes_pki on figs-cold"},
	{"rsep.dist_coverage", "frac", "higher", "pipeline.cpi on figs-cold, RSEP jobs"},
	{"rsep.dist_accuracy", "frac", "higher", "pipeline.squashes_pki on figs-cold, RSEP jobs"},
	{"vpred.coverage", "frac", "higher", "pipeline.cpi on figs-cold, VP jobs"},
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the perMille/1000 quantile of xs by the nearest-rank
// rule: the smallest sample with at least that share of samples at or below
// it. It returns 0 for no samples.
func nearestRank(xs []float64, perMille int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	r := rankOf(len(s), perMille)
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

// rankOf is the 1-based nearest rank of the perMille/1000 quantile among n
// samples.
func rankOf(n, perMille int) int { return (perMille*n + 999) / 1000 }

// percentileLadder lists the percentiles a timing may be reported at, in
// thousandths: p50, p90, p99 and p99.9.
var percentileLadder = []int{500, 900, 990, 999}

// highestPercentile returns the highest percentile of the ladder (in
// thousandths) that has at least ten of n samples beyond it, and false when
// not even the median does.
func highestPercentile(n int) (int, bool) {
	best, ok := 0, false
	for _, pm := range percentileLadder {
		if n-rankOf(n, pm) >= 10 {
			best, ok = pm, true
		}
	}
	return best, ok
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
