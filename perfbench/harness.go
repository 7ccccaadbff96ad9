package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"rsepsim/internal/experiments"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"figs-cold", "figs-warm", "daemon-sliced"}

// newWorkload builds the named workload. Seed 0 means experiments' default
// base seed, as it does for `experiments -seed 0`.
func newWorkload(name string, seed int64, dir string) (benchWorkload, error) {
	seed = experiments.Options{BaseSeed: seed}.Defaults().BaseSeed
	switch name {
	case "figs-cold":
		return newFigs([]experiments.Options{coldOptions(seed)}, []experiments.Options{sharedOptions(seed)}, false, dir)
	case "figs-warm":
		return newFigs(warmOptions(seed), nil, true, dir)
	case "daemon-sliced":
		return newDaemon(seed, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// tracing is the state of a traced pass: the span recorder, the
// benchmark-owned executor and its pipeline accumulator.
type tracing struct {
	tr   *tracer
	exec *tracedExec
	acc  *pipeAcc
}

type harness struct {
	name    string
	seed    int64
	w       benchWorkload
	seconds time.Duration
	traced  bool
	spans   string
	stderr  io.Writer
}

// measure sets up, runs passes for the configured time and derives every
// metric. Untraced and, in a traced run, traced passes alternate.
func (h *harness) measure() (*result, error) {
	res := &result{all: make(map[string]float64)}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := h.w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.all["setup_s"] = median(setups)

	var tc *tracing
	if h.traced {
		tr := newTracer()
		acc := newPipeAcc()
		tc = &tracing{tr: tr, exec: newTracedExec(tr, acc), acc: acc}
	}
	ref := h.w.reference()
	var (
		walls, tracedWalls, heaps, rates, lat []float64
		cpus                                  []float64
		attempted, failed                     int
		counts                                map[string]float64
		tracedCounts                          = make(map[string][]float64)
	)
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		done := elapsed >= h.seconds && len(walls) >= minPasses && len(lat) >= minLatencySamples
		if h.traced {
			done = elapsed >= h.seconds && len(walls) >= 2 && len(tracedWalls) >= 2
		}
		if done || elapsed > h.seconds+maxOverrun {
			break
		}
		traced := h.traced && i%2 == 1 && len(tracedWalls) < maxTracedPasses
		resetCorePool(h.w.geometries())
		runtime.GC()
		before, cpuBefore := heapAllocated(), cpuSeconds()
		var p *passOut
		var err error
		if traced {
			p, err = h.w.pass(tc)
		} else {
			p, err = h.w.pass(nil)
		}
		alloc, cpu := heapAllocated()-before, cpuSeconds()-cpuBefore
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		if ref == nil {
			ref = p.hashes
		}
		attempted += len(p.hashes)
		for j := range p.hashes {
			if p.bad[j] || j >= len(ref) || p.hashes[j] != ref[j] {
				failed++
			}
		}
		if traced {
			tracedWalls = append(tracedWalls, p.wall.Seconds())
			for k, v := range p.counts {
				tracedCounts[k] = append(tracedCounts[k], v)
			}
			continue
		}
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, cpu)
		heaps = append(heaps, float64(alloc)/(1<<20))
		rates = append(rates, float64(p.simInsts)/1e6/p.wall.Seconds())
		lat = append(lat, p.latencies...)
		if counts == nil {
			counts = p.counts
		}
	}

	// Output checks beyond pass-to-pass agreement: the digests recorded for
	// the default seed.
	type check struct {
		key string
		hs  []jobHash
	}
	checks := []check{{h.name, ref}}
	if sh := h.w.shared(); len(sh) > 0 {
		checks = append(checks, check{"shared", subset(ref, sh)})
	}
	for _, d := range checks {
		got := digest(d.hs)
		res.notes = append(res.notes, fmt.Sprintf("digest %s = %s", d.key, got))
		if h.seed == defaultSeed && got != recordedDigests[d.key] {
			res.notes = append(res.notes, fmt.Sprintf("digest %s MISMATCH: recorded %s", d.key, recordedDigests[d.key]))
			failed = attempted
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("set-ups: %.3f s", setups))
	res.notes = append(res.notes, fmt.Sprintf("untraced passes: wall_s %.3f, process CPU s %.3f", walls, cpus))

	res.all["wall_s"] = median(walls)
	res.all["job_p50_ms"] = nearestRank(lat, 500)
	res.all["job_p90_ms"] = nearestRank(lat, 900)
	res.all["heap_alloc_mb"] = median(heaps)
	res.all["peak_rss_mb"] = peakRSSMB()
	res.all["sim_minsts_per_s"] = median(rates)
	res.all["job_latency_samples"] = float64(len(lat))
	res.lat = lat
	for k, v := range counts {
		res.all[k] = v
	}
	if h.traced {
		if err := h.traceMetrics(res, tc, walls, tracedWalls, tracedCounts); err != nil {
			return nil, err
		}
	}

	res.out = output{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue)}
	specs := endToEnd
	if h.traced {
		specs = perLayer
	}
	for _, s := range specs {
		res.out.Metrics[s.name] = metricValue{Value: finite(res.all[s.name]), Unit: s.unit}
	}
	return res, nil
}

// maxTracedPasses caps the traced passes of a run; later passes run
// untraced, which keeps the span file of figs-warm's many short passes
// small.
const maxTracedPasses = 10

// maxOverrun bounds how long the harness keeps measuring past --seconds to
// reach its minimum pass and sample counts, so a run ends well inside the
// benchmark's time limit.
const maxOverrun = 60 * time.Second

// traceMetrics derives the per-layer metrics of a traced run: spans, the
// traced passes' own counters, component replays and model statistics.
func (h *harness) traceMetrics(res *result, tc *tracing, walls, tracedWalls []float64, tracedCounts map[string][]float64) error {
	all := res.all
	spans := tc.tr.snapshot()
	passes := float64(len(tracedWalls))
	self := selfByName(spans)
	us := func(ns []float64) []float64 { return scale(ns, 1e-3) }
	ms := func(ns []float64) []float64 { return scale(ns, 1e-6) }

	all["trace.overhead_frac"] = ratio(median(tracedWalls)-median(walls), median(walls))
	all["experiments.self_ms"] = ratio(float64(self["experiments.figure"])/1e6, passes)
	all["config.key_us"] = mean(us(byName(spans, "config.Key")))
	all["runner.queue_wait_ms_p50"] = nearestRank(ms(tc.exec.waits), 500)
	all["runner.queue_wait_ms_p90"] = nearestRank(ms(tc.exec.waits), 900)
	resets := append(byName(spans, "pipeline.New"), byName(spans, "pipeline.ResetFor")...)
	all["pipeline.reset_ms"] = mean(ms(resets))
	gets, puts := us(byName(spans, "store.Get")), ms(byName(spans, "store.Put"))
	all["store.get_us_p50"] = nearestRank(gets, 500)
	all["store.get_us_p90"] = nearestRank(gets, 900)
	all["store.put_ms_p50"] = nearestRank(puts, 500)
	all["store.put_ms_p90"] = nearestRank(puts, 900)
	all["store.slice_put_ms"] = mean(ms(byName(spans, "store.PutSlice")))
	all["store.ckpt_put_ms"] = mean(ms(byName(spans, "store.PutCheckpoint")))
	all["store.ckpt_get_ms"] = mean(ms(byName(spans, "store.GetCheckpoint")))
	client := sum(byName(spans, "serve.Client.RunBatch"))
	all["serve.overhead_frac"] = ratio(client-sum(byName(spans, "serve.Server.RunBatch")), client)
	for k, v := range tracedCounts {
		all[k] = median(v)
	}
	tc.acc.report(all)
	if err := h.w.layers(all); err != nil {
		return fmt.Errorf("component replays: %w", err)
	}

	res.notes = append(res.notes, fmt.Sprintf("%d traced and %d untraced passes; %d spans written to %s",
		len(tracedWalls), len(walls), len(spans), h.spans))
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		res.notes = append(res.notes, fmt.Sprintf("self time %-24s %10.2f ms/pass", n, float64(self[n])/1e6/passes))
	}
	return writeSpans(h.spans, spans)
}

// report prints every computed metric, with its unit, to standard error.
func (h *harness) report(res *result) {
	w := h.stderr
	fmt.Fprintf(w, "perfbench %s seed %d trace %v: correct=%v attempted=%d failed=%d\n",
		h.name, h.seed, h.traced, res.out.Correct, res.out.Attempted, res.out.Failed)
	fmt.Fprintln(w, "end to end:")
	for _, s := range endToEnd {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", s.name, res.all[s.name], s.unit)
	}
	if p, ok := highestPercentile(len(res.lat)); ok {
		fmt.Fprintf(w, "  job latency: %d samples; highest percentile with ten beyond it: p%g = %.4g ms\n",
			len(res.lat), float64(p)/10, nearestRank(res.lat, p))
	} else {
		fmt.Fprintf(w, "  job latency: %d samples, too few for any percentile\n", len(res.lat))
	}
	if h.traced {
		fmt.Fprintln(w, "per layer (metric, value, unit, end-to-end metric it should move):")
		for _, s := range perLayer {
			fmt.Fprintf(w, "  %-32s %14.6g %-8s %s\n", s.name, res.all[s.name], s.unit, s.moves)
		}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
