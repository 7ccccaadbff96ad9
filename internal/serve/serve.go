package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"rsepsim/internal/runner"
	"rsepsim/internal/store"
	"rsepsim/internal/version"
)

// maxBatchBody bounds a POST /v1/batches body: MaxBatchJobs jobs with full
// inline configurations fit comfortably.
const maxBatchBody = 256 << 20

// Options configures a Server.
type Options struct {
	// Sched is the scheduler every admitted batch runs on. Required (it also
	// backs /v1/status and /metrics gauges even when Runner wraps the
	// execution path).
	Sched *runner.Scheduler
	// Runner, when non-nil, is what admitted batches are submitted to instead
	// of Sched — a wrapper around Sched (tracing, instrumentation) that must
	// eventually run on it. Nil means Sched.
	Runner runner.BatchRunner
	// Disk, when non-nil, backs GET /v1/results/{id}. Without it the
	// endpoint answers 404 for everything (an in-memory-only daemon still
	// serves batches).
	Disk *store.Disk
	// Log, when non-nil, receives one line per admitted batch.
	Log *log.Logger
}

// Server is the HTTP face of the scheduler and its store.
type Server struct {
	opt  Options
	mux  *http.ServeMux
	root context.Context
	stop context.CancelCauseFunc
}

// ErrShuttingDown is the cancellation cause batches observe when the server
// is closed mid-run.
var ErrShuttingDown = errors.New("serve: shutting down")

// NewServer returns a ready-to-mount server.
func NewServer(opt Options) *Server {
	if opt.Sched == nil {
		panic("serve: Options.Sched is required")
	}
	if opt.Log == nil {
		opt.Log = log.New(io.Discard, "", 0)
	}
	root, stop := context.WithCancelCause(context.Background())
	s := &Server{opt: opt, mux: http.NewServeMux(), root: root, stop: stop}
	s.mux.HandleFunc("POST /v1/batches", s.handleBatch)
	s.mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels every in-flight batch with ErrShuttingDown. In-flight
// handlers then flush what finished (completed results are already in the
// store) and stream their final event before returning, so a graceful
// http.Server.Shutdown drains cleanly: cancel batches first, then Shutdown.
func (s *Server) Close() { s.stop(ErrShuttingDown) }

// batchCtx ties a request's lifetime to the server's: the batch aborts on
// client disconnect or on server shutdown, whichever comes first.
func (s *Server) batchCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(r.Context())
	unhook := context.AfterFunc(s.root, func() { cancel(context.Cause(s.root)) })
	return ctx, func() { unhook(); cancel(nil) }
}

// streamWriteTimeout bounds each event write: a client that stops reading
// its stream stalls the batch's workers (events fire on them, and slice
// events while the job holds a scheduler-wide slot), so the write must fail
// rather than block forever. Once a write fails the stream goes dark but
// the batch keeps running — its results still land in the store.
const streamWriteTimeout = 30 * time.Second

// streamWriter serializes events onto the response as NDJSON.
// Progress callbacks arrive from scheduler goroutines, so writes lock.
type streamWriter struct {
	mu    sync.Mutex
	w     http.ResponseWriter
	rc    *http.ResponseController
	flush http.Flusher
	err   error // first write failure; once the client is gone, stop writing
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	sw := &streamWriter{w: w, rc: http.NewResponseController(w)}
	sw.flush, _ = w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no") // tell buffering proxies to pass events through
	return sw
}

func (sw *streamWriter) send(ev event) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return
	}
	raw, err := json.Marshal(ev)
	if err != nil {
		sw.err = err
		return
	}
	// Per-write deadline, not a server-wide WriteTimeout: batches stream for
	// arbitrarily long, but no single event may block a worker indefinitely.
	// Writers that cannot set deadlines (test recorders) are left unbounded.
	_ = sw.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	_, sw.err = fmt.Fprintf(sw.w, "%s\n", raw)
	if sw.err == nil && sw.flush != nil {
		sw.flush.Flush()
	}
}

// handleBatch admits one BatchSpec and streams its resolution.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var spec runner.BatchSpec
	body := http.MaxBytesReader(w, r.Body, maxBatchBody)
	dec := json.NewDecoder(body)
	// Strict decoding: a typoed field ("slcies") must be a 400, not a field
	// that silently never takes effect.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, CodeUndecodableSpec, fmt.Sprintf("undecodable batch: %v", err))
		return
	}
	b, err := spec.Batch()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
		return
	}

	ctx, cancel := s.batchCtx(r)
	defer cancel()

	s.opt.Log.Printf("batch: %d jobs, from %s", len(b.Jobs), r.RemoteAddr)

	sw := newStreamWriter(w)
	b.OnProgress = func(p runner.Progress) {
		ev := event{
			Event:    "result",
			Index:    p.Index,
			Done:     p.Done,
			Total:    p.Total,
			CacheHit: p.CacheHit,
			Stats:    p.Stats,
		}
		if p.Err != nil {
			ev.JobError = p.Err.Error()
		}
		sw.send(ev)
	}
	b.OnSlice = func(p runner.SliceProgress) {
		sw.send(event{
			Event:   "slice",
			Index:   p.Index,
			Slice:   p.Slice,
			Slices:  p.Slices,
			Resumed: p.Resumed,
		})
	}

	run := s.opt.Runner
	if run == nil {
		run = s.opt.Sched
	}
	before := s.opt.Sched.Counters()
	_, runErr := run.RunBatch(ctx, b)
	delta := s.opt.Sched.Counters().Sub(before)

	final := event{Event: "done", Counters: &delta}
	var pe *runner.PartialError
	if errors.As(runErr, &pe) {
		final.Partial = toPartialInfo(pe)
	} else if runErr != nil {
		final.Error = runErr.Error()
	}
	sw.send(final)
}

// handleResult serves one envelope file verbatim from the store. The entry
// id is deterministic — equal ids guarantee byte-equal simulation outcomes —
// so it doubles as a strong ETag and the response is immutable.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	etag := `"` + id + `"`
	if s.opt.Disk == nil {
		writeError(w, http.StatusNotFound, CodeNoStore, "no persistent store mounted")
		return
	}
	// Existence is established before If-None-Match is consulted: per RFC
	// 9110 a conditional (including "*") can only match a representation
	// that exists, so a probe for a missing result stays a 404, never a 304.
	raw, err := s.opt.Disk.LoadRaw(id)
	switch {
	case err == nil:
	case os.IsNotExist(err):
		writeError(w, http.StatusNotFound, CodeNotFound, "no such result")
		return
	default:
		// Malformed id or a damaged entry: the caller can re-submit the job
		// (the rewrite heals the entry); never relay bad bytes.
		writeError(w, http.StatusUnprocessableEntity, CodeDamagedEntry, err.Error())
		return
	}
	// The 304 repeats the caching metadata a 200 would carry (RFC 9110
	// §15.4.5), so a revalidating cache refreshes its freshness lifetime
	// instead of revalidating every subsequent request.
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", "public, max-age=31536000, immutable")
	if etagMatches(r.Header.Values("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "application/json")
	w.Write(raw)
}

// etagMatches reports whether any member of the If-None-Match header values
// (each possibly a comma-separated list, per RFC 9110) matches etag. Entry
// ids are strong ETags, so weak-prefixed candidates never match.
func etagMatches(values []string, etag string) bool {
	for _, v := range values {
		for _, candidate := range strings.Split(v, ",") {
			candidate = strings.TrimSpace(candidate)
			if candidate == etag || candidate == "*" {
				return true
			}
		}
	}
	return false
}

// handleStatus reports the scheduler's gauges and counters as JSON — the
// structured sibling of /metrics, for scripts and the CI resume check (which
// asserts on slices_run/slices_resumed).
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.opt.Sched.Status()
	resp := StatusResponse{
		Version:       version.String(),
		Go:            version.Go(),
		QueueDepth:    st.QueueDepth,
		Running:       st.Running,
		Waiting:       st.Waiting,
		Batches:       st.Batches,
		Jobs:          st.Jobs,
		Simulations:   st.Simulations,
		SlicesRun:     st.SlicesRun,
		SlicesResumed: st.SlicesResumed,
		CyclesSkipped: st.CyclesSkipped,
		Store:         s.opt.Sched.Counters(),
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	json.NewEncoder(w).Encode(resp)
}

// handleHealthz reports liveness and the load gauges a balancer wants.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.opt.Sched.Status()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":      "ok",
		"queue_depth": st.QueueDepth,
		"running":     st.Running,
	})
}

// handleMetrics renders the Prometheus text exposition format by hand — the
// half dozen series here do not justify a client library dependency.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.opt.Sched.Status()
	c := s.opt.Sched.Counters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	type metric struct {
		name, help, typ string
		value           uint64
	}
	for _, m := range []metric{
		{"rsepd_store_hits_total", "Batch jobs answered from the result store.", "counter", c.Hits},
		{"rsepd_store_misses_total", "Batch jobs that required a simulation.", "counter", c.Misses},
		{"rsepd_store_stale_total", "Store entries found but rejected (damage).", "counter", c.Stale},
		{"rsepd_queue_depth", "Store misses admitted and not yet picked up by a worker.", "gauge", uint64(st.QueueDepth)},
		{"rsepd_running", "Jobs currently executing.", "gauge", uint64(st.Running)},
		{"rsepd_waiting", "Job groups deduplicated onto another batch's in-flight run.", "gauge", uint64(st.Waiting)},
		{"rsepd_batches_total", "Batches admitted.", "counter", st.Batches},
		{"rsepd_jobs_total", "Jobs admitted.", "counter", st.Jobs},
		{"rsepd_simulations_total", "Simulations executed (jobs the store did not absorb).", "counter", st.Simulations},
		{"rsepd_slices_run_total", "Slices of sliced jobs that simulated.", "counter", st.SlicesRun},
		{"rsepd_slices_resumed_total", "Slices answered from stored per-slice results.", "counter", st.SlicesResumed},
		{"rsepd_sim_cycles_skipped_total", "Simulated cycles fast-forwarded over by quiescent cores.", "counter", st.CyclesSkipped},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", m.name, m.help, m.name, m.typ, m.name, m.value)
	}
}
