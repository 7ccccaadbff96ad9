package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"rsepsim/internal/branch"
	"rsepsim/internal/cache"
	"rsepsim/internal/config"
	"rsepsim/internal/dram"
	"rsepsim/internal/metrics"
	"rsepsim/internal/pipeline"
	"rsepsim/internal/predictor"
	"rsepsim/internal/rsep"
	"rsepsim/internal/runner"
	"rsepsim/internal/uarch"
	"rsepsim/internal/vpred"
	"rsepsim/internal/workload"
)

// Component replays time the workload generator, the memory hierarchy and
// the predictors through their public APIs, over the very (benchmark, seed)
// instruction streams the workload simulates — never synthetic inputs — so
// the rows move with the workload mix. The streams are replayed in commit
// order without the pipeline around them, so the rows measure each
// component's host cost per operation, not its simulated behaviour.

// stream is one job's instruction stream: its warmup plus measured length.
type stream struct {
	bench string
	seed  int64
	n     uint64
}

// streamsOf returns the distinct streams of jobs, in first-use order.
func streamsOf(jobs []runner.Job) []stream {
	seen := make(map[stream]bool)
	var out []stream
	for _, j := range jobs {
		s := stream{j.Bench, j.Seed, j.Warmup + j.Measure}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// tableIHierarchy builds the memory system from the Table I configuration
// exactly as pipeline.New wires it.
func tableIHierarchy() *cache.Hierarchy {
	cfg := config.TableI()
	return cache.NewHierarchy(cache.HierarchyConfig{
		L1I: cache.Config{Name: "L1I", SizeKB: cfg.L1SizeKB, Ways: cfg.L1Ways,
			Latency: cfg.L1ILatency, MSHRs: 8},
		L1D: cache.Config{Name: "L1D", SizeKB: cfg.L1SizeKB, Ways: cfg.L1Ways,
			Latency: cfg.L1DLatency, MSHRs: cfg.MSHRs, Prefetch: cache.NewStride(256, 1)},
		L2: cache.Config{Name: "L2", SizeKB: cfg.L2SizeKB, Ways: cfg.L2Ways,
			Latency: cfg.L2Latency - cfg.L1DLatency, MSHRs: cfg.MSHRs, Prefetch: cache.NewStream(16, 1)},
		L3: cache.Config{Name: "L3", SizeKB: cfg.L3SizeKB, Ways: cfg.L3Ways,
			Latency: cfg.L3Latency - cfg.L2Latency, MSHRs: cfg.MSHRs, Prefetch: cache.NewStream(16, 1)},
		ITLBEntries: cfg.ITLBEntries,
		DTLBEntries: cfg.DTLBEntries,
		TLBWalkLat:  cfg.TLBWalkLat,
		DRAM:        dram.NewDDR4_2400(cfg.CPUFreqGHz),
	})
}

// opTimer accumulates host time and operation counts for one row.
type opTimer struct {
	ns  int64
	ops int
}

func (t *opTimer) measure(ops int, f func()) {
	start := time.Now()
	f()
	t.ns += int64(time.Since(start))
	t.ops += ops
}

func (t *opTimer) perOp() float64 { return ratio(float64(t.ns), float64(t.ops)) }

// replayComponents fills the workload, cache, branch, rsep and vpred rows.
func replayComponents(streams []stream, out map[string]float64) {
	var gen, access, fetch, br, dist, hist, vp opTimer
	rc := rsep.Ideal()
	var buf []uarch.Inst
	for _, s := range streams {
		g := workload.New(workload.MustByName(s.bench), s.seed)
		if uint64(cap(buf)) < s.n {
			buf = make([]uarch.Inst, 0, s.n)
		}
		buf = buf[:0]
		gen.measure(int(s.n), func() {
			for i := uint64(0); i < s.n; i++ {
				in, ok := g.Next()
				if !ok {
					break
				}
				buf = append(buf, in)
			}
		})

		// Memory: every load and store through ReadPC, and one Fetch per
		// change of instruction line, one instruction per cycle.
		var mem, lines []int
		lastLine := ^uint64(0)
		var branches, elig []int
		for i := range buf {
			in := &buf[i]
			if in.IsMem() {
				mem = append(mem, i)
			}
			if line := in.PC >> 6; line != lastLine {
				lines = append(lines, i)
				lastLine = line
			}
			if in.IsBranch() {
				branches = append(branches, i)
			}
			if in.EligibleForDistance() {
				elig = append(elig, i)
			}
		}
		h := tableIHierarchy()
		access.measure(len(mem), func() {
			for _, i := range mem {
				h.ReadPC(buf[i].Addr, buf[i].PC, uint64(i))
			}
		})
		fetch.measure(len(lines), func() {
			for _, i := range lines {
				h.Fetch(buf[i].PC, uint64(i))
			}
		})

		// Branch direction, target and RAS: predict then resolve each branch.
		bp := branch.New(rand.New(rand.NewSource(s.seed)))
		var pr branch.Prediction
		br.measure(len(branches), func() {
			for _, i := range branches {
				in := &buf[i]
				bp.PredictInto(in, &pr)
				bp.Resolve(in, &pr, pr.Taken != in.Taken || in.Taken && pr.Target != in.Target)
			}
		})

		// RSEP pairing: hash each result, find its most recent equal
		// producer in the FIFO history, push it. The distances found train
		// the distance predictor below.
		fh := rsep.NewFIFOHistory(rc.HistEntries, rc.HashBits, 10)
		observed := make([]uint16, len(elig))
		hist.measure(len(elig), func() {
			for k, i := range elig {
				hv := rsep.FoldHash(buf[i].Result, uint(rc.HashBits))
				if d, ok := fh.Find(hv, uint64(k), 0); ok {
					observed[k] = d
				}
				fh.Push(hv, uint64(k))
			}
		})

		// Distance and value prediction: a lookup and an update per eligible
		// instruction, with the global history pushed at every branch as
		// the front end does (included in the time).
		dp := rsep.NewTAGEDist(rc.TAGE, nil, rand.New(rand.NewSource(s.seed)))
		dh := predictor.NewGlobalHistory(dp.HistoryLengths(), dp.HistoryWidths())
		var dlk rsep.DistLookup
		dist.measure(len(elig), func() {
			k := 0
			for i := range buf {
				in := &buf[i]
				if in.IsBranch() {
					dh.Push(in.PC, in.BrKind != uarch.BrCond || in.Taken)
				}
				if in.EligibleForDistance() {
					dp.LookupInto(&dlk, in.PC, dh)
					dp.Update(&dlk, observed[k])
					k++
				}
			}
		})
		v := vpred.New(vpred.BeBoP(), nil, rand.New(rand.NewSource(s.seed)))
		vh := predictor.NewGlobalHistory(v.HistoryLengths(), v.HistoryWidths())
		var vlk vpred.Lookup
		vp.measure(len(elig), func() {
			for i := range buf {
				in := &buf[i]
				if in.IsBranch() {
					vh.Push(in.PC, in.BrKind != uarch.BrCond || in.Taken)
				}
				if in.EligibleForDistance() {
					v.LookupInto(&vlk, in.PC, vh)
					v.Update(&vlk, in.Result)
				}
			}
		})
	}
	out["workload.ns_per_inst"] = gen.perOp()
	out["cache.ns_per_access"] = access.perOp()
	out["cache.ns_per_fetch"] = fetch.perOp()
	out["branch.ns_per_op"] = br.perOp()
	out["rsep.history_ns_per_op"] = hist.perOp()
	out["rsep.dist_ns_per_op"] = dist.perOp()
	out["vpred.ns_per_op"] = vp.perOp()
}

// replayCheckpoints runs each job to every slice boundary the daemon-sliced
// workload checkpoints at (every width instructions up to its Measure),
// timing Core.Checkpoint and a Core.Restore of the blob into a second core,
// per mechanism. Its Core.Run time gives daemon-sliced's pipeline rows.
func replayCheckpoints(jobs []runner.Job, width uint64, out map[string]float64) error {
	type ckptAcc struct {
		write, restore opTimer
		bytes          int64
	}
	acc := newPipeAcc()
	all := &ckptAcc{}
	per := make(map[string]*ckptAcc)
	for _, j := range jobs {
		prof, err := workload.ByName(j.Bench)
		if err != nil {
			return err
		}
		cfg := j.Config.Clone()
		cfg.Seed = j.Seed
		mech := mechanism(cfg)
		if per[mech] == nil {
			per[mech] = &ckptAcc{}
		}
		core := pipeline.New(cfg, workload.New(prof, j.Seed))
		other := pipeline.New(cfg, workload.New(prof, j.Seed))
		start := time.Now()
		core.Run(j.Warmup)
		ns := int64(time.Since(start))
		warm := *core.Stats()
		core.ResetStats()
		for b := width; b <= j.Measure; b += width {
			start = time.Now()
			core.Run(b - core.Stats().Committed)
			ns += int64(time.Since(start))

			var blob bytes.Buffer
			start = time.Now()
			err := core.Checkpoint(&blob)
			wns := int64(time.Since(start))
			if err != nil {
				return fmt.Errorf("checkpoint %s: %w", j.Bench, err)
			}
			src := workload.New(prof, j.Seed)
			start = time.Now()
			err = other.Restore(cfg, src, bytes.NewReader(blob.Bytes()))
			rns := int64(time.Since(start))
			if err != nil {
				return fmt.Errorf("restore %s: %w", j.Bench, err)
			}
			for _, a := range []*ckptAcc{all, per[mech]} {
				a.write.ns += wns
				a.write.ops++
				a.restore.ns += rns
				a.restore.ops++
				a.bytes += int64(blob.Len())
			}
		}
		st := *core.Stats()
		acc.add(mech, ns, warm.Committed+st.Committed, stepped(&warm)+stepped(&st))
	}
	acc.report(out)
	report := func(suffix string, a *ckptAcc) {
		if a == nil {
			return
		}
		out["ckpt.write_ms"+suffix] = a.write.perOp() / 1e6
		out["ckpt.restore_ms"+suffix] = a.restore.perOp() / 1e6
		out["ckpt.kb"+suffix] = ratio(float64(a.bytes), float64(a.write.ops)) / 1024
	}
	report("", all)
	for _, m := range []string{"baseline", "rsep", "rsep_vp"} {
		report("."+m, per[m])
	}
	return nil
}

// modelStats fills the simulated-model rows from in-memory results (which,
// unlike results read back from disk or the wire, still carry
// SkippedCycles).
func modelStats(stats []*metrics.Stats, cfgs []*config.Config, out map[string]float64) {
	var all, rs, vp metrics.Stats
	for i, st := range stats {
		if st == nil {
			continue
		}
		all.Merge(st)
		if cfgs[i].RSEP != nil {
			rs.Merge(st)
		}
		if cfgs[i].VP != nil {
			vp.Merge(st)
		}
	}
	k := float64(all.Committed) / 1000
	out["pipeline.cpi"] = ratio(float64(all.Cycles), float64(all.Committed))
	out["pipeline.skipped_cycle_frac"] = ratio(float64(all.SkippedCycles), float64(all.Cycles))
	out["pipeline.squashes_pki"] = ratio(float64(all.Squashes), k)
	out["cache.l1d_mpki"] = ratio(float64(all.L1DMisses), k)
	out["cache.l2_mpki"] = ratio(float64(all.L2Misses), k)
	out["cache.l3_mpki"] = ratio(float64(all.L3Misses), k)
	out["dram.avg_latency_cyc"] = ratio(float64(all.DRAMLatencySum), float64(all.DRAMReads))
	out["branch.mpki"] = ratio(float64(all.BranchMispredicts), k)
	out["rsep.dist_coverage"] = ratio(float64(rs.DistPred), float64(rs.Eligible))
	out["rsep.dist_accuracy"] = rs.DistAccuracy()
	out["vpred.coverage"] = ratio(float64(vp.ValuePred), float64(vp.Eligible))
}
