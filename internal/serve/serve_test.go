package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
	"rsepsim/internal/predictor"
	"rsepsim/internal/rsep"
	"rsepsim/internal/runner"
	"rsepsim/internal/store"
)

// newDaemon spins up a full server (tiered store over a temp dir, real
// simulate path unless exec is non-nil) and a client pointed at it.
func newDaemon(t *testing.T, exec runner.Executor) (*Client, *Server, *store.Disk) {
	t.Helper()
	disk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := runner.NewScheduler(runner.SchedulerOptions{
		Parallelism: 4,
		Store:       store.NewTiered(disk, false),
		Executor:    exec,
	})
	srv := NewServer(Options{Sched: sched, Disk: disk})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	cl, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return cl, srv, disk
}

func testBatch() runner.Batch {
	base := config.TableI()
	var jobs []runner.Job
	for _, bench := range []string{"mcf", "hmmer"} {
		for seed := int64(1); seed <= 2; seed++ {
			jobs = append(jobs, runner.Job{
				Bench: bench, Config: base, Seed: seed,
				Warmup: 5_000, Measure: 10_000,
			})
		}
	}
	return runner.Batch{Jobs: jobs}
}

func encodeResults(t *testing.T, res []runner.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if err := r.Stats.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRemoteMatchesLocal: the same batch through the HTTP client and through
// an in-process scheduler yields byte-identical stats — the layering proof.
func TestRemoteMatchesLocal(t *testing.T) {
	cl, _, _ := newDaemon(t, nil)
	b := testBatch()

	remote, err := cl.RunBatch(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	local, err := runner.NewScheduler(runner.SchedulerOptions{Parallelism: 2}).RunBatch(t.Context(), runner.Batch{Jobs: b.Jobs})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(t, remote), encodeResults(t, local)) {
		t.Fatal("remote results differ from local ones")
	}
}

// TestSecondSubmissionServedFromStore: resubmitting a batch performs zero
// simulations — every job is a store hit, visible in the client's counters
// and the daemon's metrics.
func TestSecondSubmissionServedFromStore(t *testing.T) {
	cl, _, _ := newDaemon(t, nil)
	b := testBatch()

	first, err := cl.RunBatch(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	cold := cl.Counters()
	if cold.Misses != uint64(len(b.Jobs)) || cold.Hits != 0 {
		t.Fatalf("cold run: %+v, want %d misses / 0 hits", cold, len(b.Jobs))
	}

	var hits int
	var mu sync.Mutex
	b.OnProgress = func(p runner.Progress) {
		mu.Lock()
		defer mu.Unlock()
		if p.CacheHit {
			hits++
		}
	}
	second, err := cl.RunBatch(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	if hits != len(b.Jobs) {
		t.Fatalf("warm run: %d cache-hit progress events, want %d", hits, len(b.Jobs))
	}
	warm := cl.Counters().Sub(cold)
	if warm.Hits != uint64(len(b.Jobs)) || warm.Misses != 0 {
		t.Fatalf("warm delta: %+v, want %d hits / 0 misses", warm, len(b.Jobs))
	}
	if !bytes.Equal(encodeResults(t, first), encodeResults(t, second)) {
		t.Fatal("store-served results differ from simulated ones")
	}
}

// TestMetricsEndpoint: the Prometheus text output carries the counters the
// CI smoke job asserts on.
func TestMetricsEndpoint(t *testing.T) {
	cl, srv, _ := newDaemon(t, nil)
	b := testBatch()
	if _, err := cl.RunBatch(t.Context(), b); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunBatch(t.Context(), b); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		fmt.Sprintf("rsepd_store_hits_total %d", len(b.Jobs)),
		fmt.Sprintf("rsepd_store_misses_total %d", len(b.Jobs)),
		fmt.Sprintf("rsepd_simulations_total %d", len(b.Jobs)),
		"rsepd_batches_total 2",
		fmt.Sprintf("rsepd_jobs_total %d", 2*len(b.Jobs)),
		"rsepd_queue_depth 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestResultEndpoint: GET /v1/results/{id} serves the raw envelope with the
// deterministic key as a strong ETag, honors If-None-Match, and 404s on
// unknown ids.
func TestResultEndpoint(t *testing.T) {
	cl, srv, _ := newDaemon(t, nil)
	b := testBatch()
	if _, err := cl.RunBatch(t.Context(), b); err != nil {
		t.Fatal(err)
	}

	id := store.ID(b.Jobs[0].Key())
	req := httptest.NewRequest("GET", "/v1/results/"+id, nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET result: %d, want 200", rec.Code)
	}
	if got := rec.Header().Get("ETag"); got != `"`+id+`"` {
		t.Fatalf("ETag = %q, want the entry id", got)
	}
	if cc := rec.Header().Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Fatalf("Cache-Control = %q, want immutable", cc)
	}
	var env struct {
		Schema int             `json:"schema"`
		Stats  json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body is not an envelope: %v", err)
	}
	if env.Schema != store.Schema || len(env.Stats) == 0 {
		t.Fatal("envelope missing schema or stats")
	}

	// Conditional GET: the ETag matches, so the cache keeps its copy.
	req = httptest.NewRequest("GET", "/v1/results/"+id, nil)
	req.Header.Set("If-None-Match", `"`+id+`"`)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("conditional GET: %d, want 304", rec.Code)
	}

	// Client-side fetch by key.
	st, err := cl.Result(t.Context(), b.Jobs[0].Key())
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed == 0 {
		t.Fatal("fetched result carries empty stats")
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/results/"+strings.Repeat("0", 64), nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/results/nonsense", nil))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("malformed id: %d, want 422", rec.Code)
	}
}

// TestBatchValidationRejected: a malformed batch is a 400 carrying the typed
// invalid_spec error, not a run.
func TestBatchValidationRejected(t *testing.T) {
	cl, _, _ := newDaemon(t, nil)
	_, err := cl.RunBatch(t.Context(), runner.Batch{Jobs: []runner.Job{
		{Bench: "no-such-bench", Config: config.TableI(), Seed: 1, Warmup: 10, Measure: 10},
	}})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v (%T), want *APIError", err, err)
	}
	if ae.Code != CodeInvalidSpec || ae.Status != http.StatusBadRequest {
		t.Fatalf("got code %q status %d, want %q 400", ae.Code, ae.Status, CodeInvalidSpec)
	}
}

// TestOversizedInlineConfigRejected: inline configs that would take the
// daemon down or fail the job in the core — a cache asking for hundreds of
// GiB (a fatal out-of-memory no recover can catch), more TAGE components
// than the predictor supports or a commit group wider than the statistics
// record (panics), a TLB walk or a clock that would keep a short job busy
// for minutes — are 400 invalid_spec at admission, never reach an
// executor, and leave the daemon serving.
func TestOversizedInlineConfigRejected(t *testing.T) {
	cl, _, _ := newDaemon(t, func(ctx context.Context, j runner.Job) (*metrics.Stats, error) {
		t.Errorf("oversized config reached the executor: %+v", j.Config)
		return &metrics.Stats{Cycles: 1, Committed: 1}, nil
	})
	hugeL3 := config.TableI()
	hugeL3.L3SizeKB = 1 << 30
	rc := rsep.Ideal()
	for len(rc.TAGE.TagBits) <= predictor.MaxComponents {
		rc.TAGE.TagBits = append(rc.TAGE.TagBits, 18)
		rc.TAGE.HistLens = append(rc.TAGE.HistLens, 64)
	}
	wide := config.TableI()
	wide.CommitWidth = config.MaxCommitWidth + 1
	slowWalk := config.TableI()
	slowWalk.TLBWalkLat = 1 << 40
	fastClock := config.TableI()
	fastClock.CPUFreqGHz = 1e12
	for name, cfg := range map[string]*config.Config{
		"L3SizeKB":    hugeL3,
		"RSEP.TAGE":   config.TableI().WithRSEP(rc),
		"CommitWidth": wide,
		"TLBWalkLat":  slowWalk,
		"CPUFreqGHz":  fastClock,
	} {
		_, err := cl.RunBatch(t.Context(), runner.Batch{Jobs: []runner.Job{
			{Bench: "mcf", Config: cfg, Seed: 1, Warmup: 10, Measure: 10},
		}})
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != CodeInvalidSpec || ae.Status != http.StatusBadRequest {
			t.Fatalf("%s: err = %v, want a 400 %s", name, err, CodeInvalidSpec)
		}
		if !strings.Contains(ae.Error(), name) {
			t.Errorf("%s: rejection %q does not name the field", name, ae.Error())
		}
		if err := cl.Healthz(t.Context()); err != nil {
			t.Fatalf("%s: daemon unhealthy after the rejection: %v", name, err)
		}
	}
}

// TestPerJobErrorPropagates: a failing job inside an otherwise healthy batch
// surfaces exactly like the local scheduler's first-failure error, with the other
// results intact. The bad job must be injected past spec validation, so a
// stub executor fails one key.
func TestPerJobErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	exec := func(ctx context.Context, j runner.Job) (*metrics.Stats, error) {
		if j.Seed == 2 {
			return nil, boom
		}
		return &metrics.Stats{Cycles: 100, Committed: 50}, nil
	}
	cl, _, _ := newDaemon(t, exec)

	jobs := []runner.Job{
		{Bench: "mcf", Config: config.TableI(), Seed: 1, Warmup: 10, Measure: 10},
		{Bench: "mcf", Config: config.TableI(), Seed: 2, Warmup: 10, Measure: 10},
	}
	res, err := cl.RunBatch(t.Context(), runner.Batch{Jobs: jobs})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the per-job failure", err)
	}
	if res[0].Err != nil || res[0].Stats == nil {
		t.Fatal("healthy job did not complete")
	}
	if res[1].Err == nil || res[1].Stats != nil {
		t.Fatal("failing job not marked")
	}
}

// TestClientCancellation: cancelling the client context mid-batch yields a
// *runner.PartialError with context.Canceled in its chain — the same shape a
// local cancelled run produces.
func TestClientCancellation(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	exec := func(ctx context.Context, j runner.Job) (*metrics.Stats, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &metrics.Stats{Cycles: 1, Committed: 1}, nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	cl, _, _ := newDaemon(t, exec)
	defer close(release)

	ctx, cancel := context.WithCancel(t.Context())
	go func() {
		<-started
		cancel()
	}()
	jobs := []runner.Job{
		{Bench: "mcf", Config: config.TableI(), Seed: 1, Warmup: 10, Measure: 10},
		{Bench: "mcf", Config: config.TableI(), Seed: 2, Warmup: 10, Measure: 10},
	}
	res, err := cl.RunBatch(ctx, runner.Batch{Jobs: jobs})
	var pe *runner.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *runner.PartialError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if len(pe.Finished)+len(pe.Aborted) != len(jobs) {
		t.Fatalf("partial lists %d+%d keys, want %d total",
			len(pe.Finished), len(pe.Aborted), len(jobs))
	}
	for i := range res {
		if res[i].Stats == nil && res[i].Err == nil {
			t.Fatalf("job %d resolved to neither stats nor error", i)
		}
	}
}

// TestServerShutdownAbortsBatches: Close cancels in-flight batches with
// ErrShuttingDown; the client sees a partial error, and completed work was
// flushed to the store.
func TestServerShutdownAbortsBatches(t *testing.T) {
	firstDone := make(chan struct{})
	block := make(chan struct{})
	var once sync.Once
	exec := func(ctx context.Context, j runner.Job) (*metrics.Stats, error) {
		if j.Seed == 1 {
			defer once.Do(func() { close(firstDone) })
			return &metrics.Stats{Cycles: 10, Committed: 5}, nil
		}
		select {
		case <-block:
			return nil, errors.New("unreachable")
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	cl, srv, disk := newDaemon(t, exec)
	defer close(block)

	go func() {
		<-firstDone
		time.Sleep(20 * time.Millisecond) // let the result flush
		srv.Close()
	}()
	jobs := []runner.Job{
		{Bench: "mcf", Config: config.TableI(), Seed: 1, Warmup: 10, Measure: 10},
		{Bench: "mcf", Config: config.TableI(), Seed: 2, Warmup: 10, Measure: 10},
	}
	// Parallelism 1 orders the two jobs deterministically.
	res, err := cl.RunBatch(t.Context(), runner.Batch{Jobs: jobs, Parallelism: 1})
	var pe *runner.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *runner.PartialError", err)
	}
	if !strings.Contains(pe.Err.Error(), "shutting down") {
		t.Fatalf("cause = %v, want the shutdown cause", pe.Err)
	}
	if res[0].Stats == nil {
		t.Fatal("job finished before shutdown lost its result")
	}
	if len(pe.Finished) != 1 || len(pe.Aborted) != 1 {
		t.Fatalf("finished/aborted = %d/%d, want 1/1", len(pe.Finished), len(pe.Aborted))
	}
	// The finished job's result survived into the store.
	if _, ok := disk.Get(jobs[0].Key()); !ok {
		t.Fatal("finished result was not flushed to the store")
	}
}

// TestHealthz reports ok.
func TestHealthz(t *testing.T) {
	cl, _, _ := newDaemon(t, nil)
	if err := cl.Healthz(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestTransportFailureIsNotPartial: a daemon that cannot be reached yields a
// plain transport error — PartialError is reserved for cancellation.
func TestTransportFailureIsNotPartial(t *testing.T) {
	cl, err := NewClient("http://127.0.0.1:1") // nothing listens on port 1
	if err != nil {
		t.Fatal(err)
	}
	jobs := []runner.Job{{Bench: "mcf", Config: config.TableI(), Seed: 1, Warmup: 10, Measure: 10}}
	res, err := cl.RunBatch(t.Context(), runner.Batch{Jobs: jobs})
	if err == nil {
		t.Fatal("unreachable daemon reported success")
	}
	var pe *runner.PartialError
	if errors.As(err, &pe) {
		t.Fatalf("transport failure mis-typed as PartialError: %v", err)
	}
	if res[0].Err == nil {
		t.Fatal("unresolved job carries no error")
	}
}

// TestConditionalGETRequiresExistence: If-None-Match can only match results
// that exist (404 beats 304, even for "*"), and list-valued headers match.
func TestConditionalGETRequiresExistence(t *testing.T) {
	cl, srv, _ := newDaemon(t, func(ctx context.Context, j runner.Job) (*metrics.Stats, error) {
		return &metrics.Stats{Cycles: 1, Committed: 1}, nil
	})
	job := runner.Job{Bench: "mcf", Config: config.TableI(), Seed: 1, Warmup: 10, Measure: 10}
	if _, err := cl.RunBatch(t.Context(), runner.Batch{Jobs: []runner.Job{job}}); err != nil {
		t.Fatal(err)
	}
	id := store.ID(job.Key())

	// "*" against a missing result: 404, not 304.
	req := httptest.NewRequest("GET", "/v1/results/"+strings.Repeat("0", 64), nil)
	req.Header.Set("If-None-Match", "*")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("If-None-Match: * on a missing result: %d, want 404", rec.Code)
	}

	// "*" against an existing result: 304.
	req = httptest.NewRequest("GET", "/v1/results/"+id, nil)
	req.Header.Set("If-None-Match", "*")
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match: * on an existing result: %d, want 304", rec.Code)
	}

	// A comma-separated candidate list matches its member.
	req = httptest.NewRequest("GET", "/v1/results/"+id, nil)
	req.Header.Set("If-None-Match", `"nope", "`+id+`"`)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("list-valued If-None-Match: %d, want 304", rec.Code)
	}
}

// TestMalformedInlineConfigRejected: a structurally invalid inline config is
// a 400 at admission — and even a config that slips past validation cannot
// crash the daemon (the executor panic backstop degrades it to a job error).
func TestMalformedInlineConfigRejected(t *testing.T) {
	_, srv, _ := newDaemon(t, nil)
	body, _ := json.Marshal(runner.BatchSpec{Jobs: []runner.JobSpec{
		{Bench: "mcf", Config: &config.Config{}, Seed: 1, Measure: 10},
	}})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batches", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("zero-value config admitted: %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "must be positive") {
		t.Fatalf("rejection does not name the bad field: %s", rec.Body.String())
	}

	// Backstop: a panicking executor is a per-job failure, not a crash.
	cl, _, _ := newDaemon(t, func(ctx context.Context, j runner.Job) (*metrics.Stats, error) {
		panic("boom")
	})
	res, err := cl.RunBatch(t.Context(), runner.Batch{Jobs: []runner.Job{
		{Bench: "mcf", Config: config.TableI(), Seed: 1, Warmup: 10, Measure: 10},
	}})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want the recovered panic", err)
	}
	if res[0].Err == nil {
		t.Fatal("panicking job not marked failed")
	}
	// The daemon is still alive and serving.
	if err := cl.Healthz(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// Test304CarriesCachingHeaders: the 304 repeats ETag and Cache-Control so
// revalidating caches refresh their freshness lifetime.
func Test304CarriesCachingHeaders(t *testing.T) {
	cl, srv, _ := newDaemon(t, func(ctx context.Context, j runner.Job) (*metrics.Stats, error) {
		return &metrics.Stats{Cycles: 1, Committed: 1}, nil
	})
	job := runner.Job{Bench: "mcf", Config: config.TableI(), Seed: 4, Warmup: 10, Measure: 10}
	if _, err := cl.RunBatch(t.Context(), runner.Batch{Jobs: []runner.Job{job}}); err != nil {
		t.Fatal(err)
	}
	id := store.ID(job.Key())
	req := httptest.NewRequest("GET", "/v1/results/"+id, nil)
	req.Header.Set("If-None-Match", `"`+id+`"`)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("conditional GET: %d, want 304", rec.Code)
	}
	if rec.Header().Get("ETag") != `"`+id+`"` {
		t.Fatal("304 lost the ETag")
	}
	if cc := rec.Header().Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Fatalf("304 Cache-Control = %q, want the immutable policy", cc)
	}
}
