package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"rsepsim/internal/runner"
	"rsepsim/internal/store"
)

// serialDaemon is newDaemon with parallelism 1, so the result stream's event
// order — and therefore where a byte-count truncation lands — is
// deterministic. It also exposes the scheduler for drain assertions.
func serialDaemon(t *testing.T) (string, *runner.Scheduler) {
	t.Helper()
	disk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := runner.NewScheduler(runner.SchedulerOptions{
		Parallelism: 1,
		Store:       store.NewTiered(disk, false),
	})
	srv := NewServer(Options{Sched: sched, Disk: disk})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, sched
}

// firstEventLen measures the byte length (including newline) of the first
// result event a fresh daemon streams for the batch — simulation is
// deterministic, so the same batch on another fresh serial daemon produces
// a byte-identical stream prefix.
func firstEventLen(t *testing.T, b runner.Batch) int {
	t.Helper()
	url, _ := serialDaemon(t)
	body, err := json.Marshal(b.Spec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) // let the daemon finish cleanly
	return len(line)
}

// cutTransport cuts every /v1/batches response body after n bytes: the read
// past the budget fails with io.ErrUnexpectedEOF, and Close still closes the
// real body so the connection is torn down rather than leaked.
type cutTransport struct {
	base http.RoundTripper
	n    int64
}

func (t cutTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil || !strings.HasSuffix(r.URL.Path, "/v1/batches") {
		return resp, err
	}
	cut := io.MultiReader(io.LimitReader(resp.Body, t.n), iotest.ErrReader(io.ErrUnexpectedEOF))
	resp.Body = struct {
		io.Reader
		io.Closer
	}{cut, resp.Body}
	return resp, nil
}

func truncatedClient(t *testing.T, url string, after int64) *Client {
	t.Helper()
	cl, err := NewClientWith(url, &http.Client{Transport: cutTransport{base: NewTransport(), n: after}})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestStreamTruncationIsTypedPartial: a result stream cut mid-batch
// surfaces as a *runner.PartialError wrapping a *StreamError, with the
// finished/aborted key split exactly matching which stats actually arrived
// — no finished key listed as aborted, no unfinished key promoted — and the
// daemon-side scheduler drains (no leaked worker keeps simulating for a
// reader that is gone).
func TestStreamTruncationIsTypedPartial(t *testing.T) {
	b := testBatch()
	cut := firstEventLen(t, b) + 5 // one whole event, then mid-line

	url, sched := serialDaemon(t)
	cl := truncatedClient(t, url, int64(cut))
	res, err := cl.RunBatch(t.Context(), b)

	var pe *runner.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *runner.PartialError, got %T: %v", err, err)
	}
	var se *StreamError
	if !errors.As(err, &se) {
		t.Fatalf("partial error does not wrap *StreamError: %v", err)
	}
	if se.Resolved != 1 || pe.Done != 1 {
		t.Fatalf("cut after one event, but Resolved=%d Done=%d", se.Resolved, pe.Done)
	}

	finished := map[runner.Key]bool{}
	for _, k := range pe.Finished {
		finished[k] = true
	}
	for _, k := range pe.Aborted {
		if finished[k] {
			t.Fatalf("key %+v listed both finished and aborted", k)
		}
	}
	if len(finished)+len(pe.Aborted) != len(b.Jobs) { // testBatch keys are unique
		t.Fatalf("key split covers %d keys, want %d", len(finished)+len(pe.Aborted), len(b.Jobs))
	}
	for i, r := range res {
		if (r.Stats != nil) != finished[b.Jobs[i].Key()] {
			t.Fatalf("job %d: stats presence disagrees with the finished list", i)
		}
		if r.Stats == nil && r.Err == nil {
			t.Fatalf("job %d left unresolved", i)
		}
	}

	// The truncating client tore the connection down; the daemon must notice
	// and abort the batch rather than leak a worker.
	deadline := time.Now().Add(5 * time.Second)
	for sched.Status().Running != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler still running %d jobs after the client vanished", sched.Status().Running)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamCorruptionIsTyped: a stream carrying undecodable bytes
// mid-batch surfaces the same typed shape — *runner.PartialError wrapping a
// *StreamError — with every key whose stats never arrived listed aborted.
func TestStreamCorruptionIsTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"event":"result","index":0,"done":1,"total":4,"job_error":"boom"}`)
		fmt.Fprintln(w, `{"event":"result","index":1,`) // a proxy mangled this line
	}))
	t.Cleanup(ts.Close)
	cl, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	b := testBatch()
	res, err := cl.RunBatch(t.Context(), b)

	var pe *runner.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *runner.PartialError, got %T: %v", err, err)
	}
	var se *StreamError
	if !errors.As(err, &se) || !strings.Contains(se.Error(), "undecodable") {
		t.Fatalf("want an undecodable-event *StreamError, got %v", err)
	}
	if len(pe.Finished) != 0 || len(pe.Aborted) != len(b.Jobs) {
		t.Fatalf("nothing finished, yet split is %d finished / %d aborted", len(pe.Finished), len(pe.Aborted))
	}
	if res[0].Err == nil || res[0].Err.Error() != "boom" {
		t.Fatalf("the decoded per-job error was lost: %v", res[0].Err)
	}
}

// TestStatusCarriesBuildInfo: /v1/status identifies the build and toolchain.
func TestStatusCarriesBuildInfo(t *testing.T) {
	cl, _, _ := newDaemon(t, nil)
	st, err := cl.Status(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Version == "" {
		t.Fatal("status carries no version")
	}
	if !strings.HasPrefix(st.Go, "go") {
		t.Fatalf("status Go = %q, want a toolchain version", st.Go)
	}
}

// TestStreamLeavingJobsUnresolvedIsTyped: a stream whose events would leave
// a job with neither stats nor an error — a result carrying neither or both,
// an index resolved twice, a clean final event before every job resolved —
// is a *StreamError, and every job ends with exactly one of the two.
func TestStreamLeavingJobsUnresolvedIsTyped(t *testing.T) {
	for name, body := range map[string]string{
		"no stats or error": `{"event":"result","index":0,"stats":{}}
{"event":"result","index":1}
{"event":"result","index":2,"stats":{}}
{"event":"done"}`,
		"stats and error": `{"event":"result","index":0,"stats":{},"job_error":"boom"}
{"event":"result","index":1,"stats":{}}
{"event":"result","index":2,"stats":{}}
{"event":"done"}`,
		"resolved twice": `{"event":"result","index":0,"stats":{}}
{"event":"result","index":0,"stats":{}}
{"event":"result","index":1,"stats":{}}
{"event":"done"}`,
		"early done": `{"event":"result","index":0,"stats":{}}
{"event":"result","index":1,"stats":{}}
{"event":"done"}`,
	} {
		res, err := streamClient(t, []byte(body)).RunBatch(t.Context(), streamBatch())
		var se *StreamError
		if !errors.As(err, &se) {
			t.Errorf("%s: err = %v (%T), want a *StreamError", name, err, err)
		}
		for i, r := range res {
			if (r.Stats == nil) == (r.Err == nil) {
				t.Errorf("%s: job %d has stats %v and error %v", name, i, r.Stats != nil, r.Err)
			}
		}
	}
}
