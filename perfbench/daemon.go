package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
	"rsepsim/internal/rsep"
	"rsepsim/internal/runner"
	"rsepsim/internal/serve"
	"rsepsim/internal/vpred"
)

// The daemon-sliced protocol: K-sliced jobs of three mechanisms on a
// memory-bound, a compute-bound and a streaming profile.
const (
	daemonWarmup  = 30_000
	daemonMeasure = 60_000
	daemonSlices  = 2
)

var daemonBenches = []string{"mcf", "hmmer", "libquantum"}

func daemonConfigs() []*config.Config {
	base := config.TableI()
	return []*config.Config{
		base,
		base.WithRSEP(rsep.Ideal()),
		base.WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP()),
	}
}

// daemonJobs returns one job per (benchmark, configuration).
func daemonJobs(benches []string, seed int64, measure uint64, slices uint32) []runner.Job {
	var jobs []runner.Job
	for _, b := range benches {
		for _, cfg := range daemonConfigs() {
			jobs = append(jobs, runner.Job{Bench: b, Config: cfg, Seed: seed,
				Warmup: daemonWarmup, Measure: measure, Slices: slices})
		}
	}
	return jobs
}

// daemon is the daemon-sliced workload: an in-process serve.Server on
// loopback over a fresh disk store per pass, driven through serve.Client
// with one connection. Each pass submits three batches, each after the
// previous one returns: a cold batch of sliced jobs, the identical batch
// again (all hits), and an extension to twice the measured length at the
// same slice width, which resumes the stored slices and restores the last
// checkpoint.
type daemon struct {
	seed    int64
	dir     string
	batches [3][]runner.Job
	ref     []jobHash
	// refStats holds the monolithic results of the cold and the extension
	// batch, for the simulated-model statistics.
	refStats []*metrics.Stats
	refCfgs  []*config.Config
	simInsts uint64

	lb     *loopback
	passes int
	setups int
}

func newDaemon(seed int64, dir string) (*daemon, error) {
	d := &daemon{seed: seed, dir: dir}
	cold := daemonJobs(daemonBenches, seed, daemonMeasure, daemonSlices)
	ext := daemonJobs(daemonBenches, seed, 2*daemonMeasure, 2*daemonSlices)
	d.batches = [3][]runner.Job{cold, cold, ext}
	for _, j := range cold {
		// The cold batch simulates warmup and every slice; the extension
		// simulates only the slices past the stored ones.
		d.simInsts += j.Warmup + j.Measure + j.Measure
	}

	// The reference: the same jobs run monolithically in process.
	sched := runner.NewScheduler(runner.SchedulerOptions{Parallelism: parallelism})
	var refs [][]jobHash
	for _, jobs := range [][]runner.Job{cold, ext} {
		mono := make([]runner.Job, len(jobs))
		for i, j := range jobs {
			j.Slices = 0
			mono[i] = j
		}
		res, err := sched.RunBatch(context.Background(), runner.Batch{Jobs: mono})
		if err != nil {
			return nil, fmt.Errorf("monolithic reference: %w", err)
		}
		var hs []jobHash
		for _, r := range res {
			hs = append(hs, hashStats(r.Stats))
			d.refStats = append(d.refStats, r.Stats)
			d.refCfgs = append(d.refCfgs, r.Job.Config)
		}
		refs = append(refs, hs)
	}
	d.ref = append(append(append(d.ref, refs[0]...), refs[0]...), refs[1]...)
	return d, nil
}

func (d *daemon) geometries() []*config.Config { return daemonConfigs() }
func (d *daemon) reference() []jobHash         { return d.ref }
func (d *daemon) shared() []int                { return nil }

func (d *daemon) close() {
	if d.lb != nil {
		d.lb.stop()
	}
}

// setup starts the loopback server and its client, then warms them with
// the cold batch of sharedBench on a throwaway store.
func (d *daemon) setup() error {
	d.setups++
	if d.lb != nil {
		d.lb.stop()
	}
	lb, err := startLoopback()
	if err != nil {
		return err
	}
	d.lb = lb
	dir := filepath.Join(d.dir, fmt.Sprintf("setup-%d", d.setups))
	defer os.RemoveAll(dir)
	st, err := openTiered(dir)
	if err != nil {
		return err
	}
	srv := serve.NewServer(serve.Options{
		Sched: runner.NewScheduler(runner.SchedulerOptions{Parallelism: parallelism, Store: st}),
		Disk:  st.Disk(),
	})
	lb.cur.Store(srv)
	defer func() { srv.Close(); lb.cur.Store(nil) }()
	if err := lb.client.Healthz(context.Background()); err != nil {
		return err
	}
	_, err = lb.client.RunBatch(context.Background(), runner.Batch{
		Jobs: daemonJobs([]string{sharedBench}, d.seed, daemonMeasure, daemonSlices)})
	return err
}

func (d *daemon) pass(tc *tracing) (*passOut, error) {
	d.passes++
	dir := filepath.Join(d.dir, fmt.Sprintf("pass-%d", d.passes))
	defer os.RemoveAll(dir)

	start := time.Now()
	st, err := openTiered(dir)
	if err != nil {
		return nil, err
	}
	var ts *timedStore
	opts := serve.Options{Disk: st.Disk()}
	if tc != nil {
		ts = &timedStore{inner: st, tr: tc.tr}
		opts.Sched = runner.NewScheduler(runner.SchedulerOptions{Parallelism: parallelism, Store: ts})
		opts.Runner = &tracedRunner{next: opts.Sched, tr: tc.tr, name: "serve.Server.RunBatch"}
	} else {
		opts.Sched = runner.NewScheduler(runner.SchedulerOptions{Parallelism: parallelism, Store: st})
	}
	srv := serve.NewServer(opts)
	d.lb.cur.Store(srv)
	defer func() { srv.Close(); d.lb.cur.Store(nil) }()

	out := &passOut{counts: make(map[string]float64)}
	var firsts []float64
	var hitWall time.Duration
	before := opts.Sched.Status()
	storeBefore := st.Counters()
	for bi, jobs := range d.batches {
		sims := opts.Sched.Status().Simulations
		b, err := d.submit(jobs, tc)
		if err != nil {
			return nil, err
		}
		if bi == 1 {
			hitWall = b.wall
			// The resubmission must be all hits: runner.simulations = 0.
			resim := opts.Sched.Status().Simulations != sims
			for i := range b.bad {
				b.bad[i] = b.bad[i] || resim || !b.hits[i]
			}
		}
		firsts = append(firsts, b.first)
		out.hashes = append(out.hashes, b.hashes...)
		out.bad = append(out.bad, b.bad...)
		out.latencies = append(out.latencies, b.latencies...)
	}
	out.wall = time.Since(start)
	if err := st.Disk().Err(); err != nil {
		return nil, fmt.Errorf("store writes failing: %w", err)
	}
	after := opts.Sched.Status()
	sd := st.Counters().Sub(storeBefore)
	out.simInsts = d.simInsts
	out.counts["runner.simulations"] = float64(after.Simulations - before.Simulations)
	out.counts["runner.slices_run"] = float64(after.SlicesRun - before.SlicesRun)
	out.counts["runner.slices_resumed"] = float64(after.SlicesResumed - before.SlicesResumed)
	out.counts["runner.dedup_ratio"] = ratio(float64(len(d.batches[0])+len(d.batches[2])), float64(len(out.hashes)))
	out.counts["store.hit_ratio"] = ratio(float64(sd.Hits), float64(sd.Hits+sd.Misses))
	if tc != nil {
		out.counts["serve.first_result_ms"] = median(firsts)
		out.counts["serve.hit_us_per_job"] = float64(hitWall) / 1e3 / float64(len(d.batches[1]))
		out.counts["store.ckpt_mb_written"] = float64(ts.ckptBytes()) / (1 << 20)
	}
	return out, nil
}

// batchOut is one batch's outcome as the client saw it.
type batchOut struct {
	hashes    []jobHash
	bad       []bool
	hits      []bool
	latencies []float64
	first     float64 // ms from submission to the first result event
	wall      time.Duration
}

// submit sends one batch over HTTP and waits for its final event.
func (d *daemon) submit(jobs []runner.Job, tc *tracing) (*batchOut, error) {
	n := len(jobs)
	b := &batchOut{bad: make([]bool, n), hits: make([]bool, n)}
	stats := make([]*metrics.Stats, n)
	start := time.Now()
	batch := runner.Batch{Jobs: jobs, OnProgress: func(p runner.Progress) {
		ms := float64(time.Since(start)) / 1e6
		if len(b.latencies) == 0 {
			b.first = ms
		}
		b.latencies = append(b.latencies, ms)
		stats[p.Index], b.hits[p.Index] = p.Stats, p.CacheHit
	}}
	var err error
	if tc != nil {
		s, parent := tc.tr.open(true)
		restore := tc.tr.enter(s)
		_, err = d.lb.client.RunBatch(context.Background(), batch)
		tc.tr.close(s, parent, "serve.Client.RunBatch", "")
		restore()
	} else {
		_, err = d.lb.client.RunBatch(context.Background(), batch)
	}
	b.wall = time.Since(start)
	var jf *runner.JobFailure
	if err != nil && !errors.As(err, &jf) {
		return nil, fmt.Errorf("batch: %w", err)
	}
	b.hashes = hashAll(stats)
	for i, st := range stats {
		b.bad[i] = st == nil
	}
	return b, nil
}

func (d *daemon) layers(out map[string]float64) error {
	ext := d.batches[2]
	replayComponents(streamsOf(ext), out)
	if err := replayCheckpoints(ext, daemonMeasure/daemonSlices, out); err != nil {
		return err
	}
	modelStats(d.refStats, d.refCfgs, out)
	return nil
}

// loopback is an HTTP server on 127.0.0.1 whose handler can be swapped per
// pass, with a client limited to one connection.
type loopback struct {
	hs        *http.Server
	served    chan error
	cur       atomic.Pointer[serve.Server]
	transport *http.Transport
	client    *serve.Client
}

func startLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{served: make(chan error, 1)}
	lb.hs = &http.Server{Handler: lb, ReadHeaderTimeout: 10 * time.Second}
	go func() { lb.served <- lb.hs.Serve(ln) }()
	lb.transport = serve.NewTransport()
	lb.transport.MaxConnsPerHost = 1
	lb.transport.MaxIdleConnsPerHost = 1
	lb.client, err = serve.NewClientWith("http://"+ln.Addr().String(), &http.Client{Transport: lb.transport})
	if err != nil {
		lb.stop()
		return nil, err
	}
	return lb, nil
}

func (lb *loopback) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := lb.cur.Load()
	if s == nil {
		http.Error(w, "no server installed", http.StatusServiceUnavailable)
		return
	}
	s.Handler().ServeHTTP(w, r)
}

// stop closes the client's connection and the server, and waits for the
// server goroutine to end.
func (lb *loopback) stop() {
	lb.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = lb.hs.Shutdown(ctx) // a timeout here still ends Serve below
	lb.hs.Close()
	<-lb.served
}
