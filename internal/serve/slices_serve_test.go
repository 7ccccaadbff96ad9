package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rsepsim/internal/config"
	"rsepsim/internal/runner"
	"rsepsim/internal/store"
)

// newDaemonOn builds a daemon over an existing store directory — the restart
// half of the resume tests.
func newDaemonOn(t *testing.T, dir string) (*Client, *Server) {
	t.Helper()
	disk, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sched := runner.NewScheduler(runner.SchedulerOptions{
		Parallelism: 2,
		Store:       store.NewTiered(disk, false),
	})
	srv := NewServer(Options{Sched: sched, Disk: disk})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	cl, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return cl, srv
}

// TestErrorEnvelopeShape: every error response carries the uniform
// {"error":{"code","message"}} envelope with a stable code.
func TestErrorEnvelopeShape(t *testing.T) {
	_, srv, _ := newDaemon(t, nil)

	check := func(method, path, body string, wantStatus int, wantCode string) {
		t.Helper()
		var req *http.Request
		if body != "" {
			req = httptest.NewRequest(method, path, strings.NewReader(body))
		} else {
			req = httptest.NewRequest(method, path, nil)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != wantStatus {
			t.Fatalf("%s %s: status %d, want %d", method, path, rec.Code, wantStatus)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: Content-Type %q, want application/json", method, path, ct)
		}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s %s: body %q is not an error envelope: %v", method, path, rec.Body, err)
		}
		if env.Error.Code != wantCode {
			t.Fatalf("%s %s: code %q, want %q", method, path, env.Error.Code, wantCode)
		}
		if env.Error.Message == "" {
			t.Fatalf("%s %s: empty error message", method, path)
		}
	}

	check("POST", "/v1/batches", "{not json", http.StatusBadRequest, CodeUndecodableSpec)
	check("POST", "/v1/batches", `{"jobs":[]}`, http.StatusBadRequest, CodeInvalidSpec)
	check("POST", "/v1/batches", `{"jobs":[{"bench":"mcf","preset":"table1","measure":10,"slcies":2}]}`,
		http.StatusBadRequest, CodeUndecodableSpec) // typoed field: strict decode
	check("POST", "/v1/batches", `{"jobs":[{"bench":"mcf","preset":"table1","measure":10}],"priority":1}`,
		http.StatusBadRequest, CodeUndecodableSpec) // removed batch option
	check("GET", "/v1/results/"+strings.Repeat("0", 64), "", http.StatusNotFound, CodeNotFound)
	check("GET", "/v1/results/nonsense", "", http.StatusUnprocessableEntity, CodeDamagedEntry)
}

// TestStatusEndpoint: /v1/status reports the scheduler gauges, including the
// slice counters, as JSON the client decodes.
func TestStatusEndpoint(t *testing.T) {
	cl, _, _ := newDaemon(t, nil)

	job := runner.Job{Bench: "mcf", Config: config.TableI(), Seed: 9,
		Warmup: 2_000, Measure: 8_000, Slices: 4}
	if _, err := cl.RunBatch(t.Context(), runner.Batch{Jobs: []runner.Job{job}}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Status(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 1 || st.Jobs != 1 {
		t.Fatalf("batches/jobs = %d/%d, want 1/1", st.Batches, st.Jobs)
	}
	if st.SlicesRun != 4 || st.SlicesResumed != 0 {
		t.Fatalf("slices run/resumed = %d/%d, want 4/0", st.SlicesRun, st.SlicesResumed)
	}
}

// TestSliceEventsStream: a sliced batch streams one "slice" event per slice
// to the client's OnSlice observer, and a daemon restarted over the same
// store answers every slice from it — the restart-recovery path, end to end.
func TestSliceEventsStream(t *testing.T) {
	dir := t.TempDir()
	cl, _ := newDaemonOn(t, dir)

	job := runner.Job{Bench: "hmmer", Config: config.TableI(), Seed: 4,
		Warmup: 2_000, Measure: 9_000, Slices: 3}
	var mu sync.Mutex
	var cold []runner.SliceProgress
	res, err := cl.RunBatch(t.Context(), runner.Batch{
		Jobs: []runner.Job{job},
		OnSlice: func(p runner.SliceProgress) {
			mu.Lock()
			cold = append(cold, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != 3 {
		t.Fatalf("cold run streamed %d slice events, want 3", len(cold))
	}
	for i, p := range cold {
		if p.Slice != i || p.Slices != 3 || p.Resumed {
			t.Fatalf("cold slice event %d = %+v", i, p)
		}
	}

	// "Kill" the daemon (drop it), delete the whole-job envelope so the
	// whole-job lookup cannot shortcut, and restart over the same directory:
	// the resubmitted batch must resume every slice from the store.
	id := store.ID(job.Key())
	entry := filepath.Join(dir, "v1", id[:2], id+".json")
	if _, err := os.Stat(entry); err != nil {
		t.Fatalf("whole-job envelope missing after cold run: %v", err)
	}
	if err := os.Remove(entry); err != nil {
		t.Fatal(err)
	}

	cl2, _ := newDaemonOn(t, dir)
	var warm []runner.SliceProgress
	res2, err := cl2.RunBatch(t.Context(), runner.Batch{
		Jobs: []runner.Job{job},
		OnSlice: func(p runner.SliceProgress) {
			mu.Lock()
			warm = append(warm, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != 3 {
		t.Fatalf("warm run streamed %d slice events, want 3", len(warm))
	}
	for i, p := range warm {
		if !p.Resumed {
			t.Fatalf("warm slice event %d not resumed: %+v", i, p)
		}
	}
	st, err := cl2.Status(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.SlicesRun != 0 || st.SlicesResumed != 3 {
		t.Fatalf("restarted daemon ran %d slices, resumed %d; want 0/3", st.SlicesRun, st.SlicesResumed)
	}

	a := encodeResults(t, res)
	b := encodeResults(t, res2)
	if string(a) != string(b) {
		t.Fatal("resumed stats differ from cold run")
	}
}

// TestSharedStoreSiblingsAgree: two daemons, each with its own scheduler and
// store handle, over one store directory. Whatever one simulated the other
// answers without simulating — whole jobs as byte-identical hits, and a
// longer sliced run resumes every slice the first daemon finished.
func TestSharedStoreSiblingsAgree(t *testing.T) {
	dir := t.TempDir()
	clA, _ := newDaemonOn(t, dir)
	clB, _ := newDaemonOn(t, dir)

	sliced := runner.Job{Bench: "mcf", Config: config.TableI(), Seed: 5,
		Warmup: 2_000, Measure: 8_000, Slices: 2}
	b := testBatch()
	b.Jobs = append(b.Jobs, sliced)

	resA, err := clA.RunBatch(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	stA, err := clA.Status(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if stA.Simulations != uint64(len(b.Jobs)) || stA.SlicesRun != 2 {
		t.Fatalf("cold daemon: %d simulations, %d slices run; want %d/2", stA.Simulations, stA.SlicesRun, len(b.Jobs))
	}

	resB, err := clB.RunBatch(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := clB.Status(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if stB.Simulations != 0 || stB.Store.Hits != uint64(len(b.Jobs)) {
		t.Fatalf("sibling: %d simulations, %d hits; want 0/%d", stB.Simulations, stB.Store.Hits, len(b.Jobs))
	}
	if !bytes.Equal(encodeResults(t, resA), encodeResults(t, resB)) {
		t.Fatal("sibling stats differ from the daemon that simulated them")
	}

	// Twice the measurement at the same slice width: the first half is the
	// slices daemon A already stored.
	ext := sliced
	ext.Measure, ext.Slices = 2*sliced.Measure, 2*sliced.Slices
	if _, err := clB.RunBatch(t.Context(), runner.Batch{Jobs: []runner.Job{ext}}); err != nil {
		t.Fatal(err)
	}
	if stB, err = clB.Status(t.Context()); err != nil {
		t.Fatal(err)
	}
	if stB.SlicesResumed != stA.SlicesRun {
		t.Fatalf("extension on the sibling resumed %d slices, want %d", stB.SlicesResumed, stA.SlicesRun)
	}
}
