package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rsepsim/internal/config"
	"rsepsim/internal/runner"
)

// bodyTransport answers every request with status 200 and its bytes as the
// body, so a Client can be fed an arbitrary response stream without a socket.
type bodyTransport []byte

func (t bodyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	return &http.Response{
		Status:     "200 OK",
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:       io.NopCloser(bytes.NewReader(t)),
		Request:    r,
	}, nil
}

// streamClient is a Client whose every batch response is body.
func streamClient(t *testing.T, body []byte) *Client {
	t.Helper()
	c, err := NewClientWith("http://rsepd.test", &http.Client{Transport: bodyTransport(body)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// streamBatch is the batch the stream tests submit: three jobs, the first
// two sharing a key.
func streamBatch() runner.Batch {
	job := runner.Job{Bench: "mcf", Config: config.TableI(), Seed: 1, Warmup: 10, Measure: 10}
	other := job
	other.Bench = "hmmer"
	return runner.Batch{Jobs: []runner.Job{job, job, other}}
}

// typedBatchError reports whether err is one of the error types RunBatch
// documents.
func typedBatchError(err error) bool {
	var (
		se *StreamError
		pe *runner.PartialError
		jf *runner.JobFailure
		ae *APIError
	)
	return errors.As(err, &se) || errors.As(err, &pe) || errors.As(err, &jf) || errors.As(err, &ae)
}

// FuzzClientStream feeds arbitrary bytes to the client as a batch response
// stream. Property: RunBatch never panics, and either returns a typed error
// or resolves every job to exactly one of Stats and Err.
func FuzzClientStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		res, err := streamClient(t, body).RunBatch(context.Background(), streamBatch())
		if err != nil && typedBatchError(err) {
			return
		}
		for i, r := range res {
			if (r.Stats == nil) == (r.Err == nil) {
				t.Fatalf("RunBatch returned %v, and job %d has stats %v and error %v", err, i, r.Stats != nil, r.Err)
			}
		}
	})
}

// stubRunner answers every batch at once without simulating anything.
type stubRunner struct{}

func (stubRunner) RunBatch(_ context.Context, b runner.Batch) ([]runner.Result, error) {
	return make([]runner.Result, len(b.Jobs)), nil
}

// stubHandler is a server's route table whose batches are decoded and
// validated but never run.
func stubHandler() http.Handler {
	sched := runner.NewScheduler(runner.SchedulerOptions{Parallelism: 1})
	return NewServer(Options{Sched: sched, Runner: stubRunner{}}).Handler()
}

// postBatch submits body to h and returns the response.
func postBatch(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batches", bytes.NewReader(body)))
	return rec
}

// checkBatchResponse asserts the batch endpoint's contract: 200 with a final
// "done" event, or 400 with the error envelope.
func checkBatchResponse(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	switch rec.Code {
	case http.StatusOK:
		var last []byte
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
				last = append(last[:0], line...)
			}
		}
		var ev event
		if err := json.Unmarshal(last, &ev); err != nil || ev.Event != "done" {
			t.Fatalf("200 response ends with %q, want a done event", last)
		}
	case http.StatusBadRequest:
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("400 response is not an error envelope: %v: %q", err, rec.Body.String())
		}
		if code := env.Error.Code; (code != CodeUndecodableSpec && code != CodeInvalidSpec) || env.Error.Message == "" {
			t.Fatalf("400 envelope has code %q, message %q", code, env.Error.Message)
		}
	default:
		t.Fatalf("status %d: %q", rec.Code, rec.Body.String())
	}
}

// FuzzBatchSpec posts arbitrary bytes as a BatchSpec. Property: the handler
// never panics, and answers 200 with a final done event or 400 with the
// error envelope.
func FuzzBatchSpec(f *testing.F) {
	h := stubHandler()
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBatchResponse(t, postBatch(h, body))
	})
}

// readSeed returns the []byte argument of one seed corpus file.
func readSeed(t *testing.T, target, seed string) []byte {
	t.Helper()
	file, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, seed))
	if err != nil {
		t.Fatal(err)
	}
	_, arg, _ := strings.Cut(strings.TrimSpace(string(file)), "\n")
	raw, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s/%s: %v", target, seed, err)
	}
	return []byte(raw)
}

// TestBatchSpecSeedsAsNamed pins FuzzBatchSpec's seed corpus to what its file
// names claim: the valid seeds are admitted, each other seed is refused with
// its code.
func TestBatchSpecSeedsAsNamed(t *testing.T) {
	h := stubHandler()
	for seed, code := range map[string]string{
		"valid":            "",
		"valid-inline":     "",
		"unknown-field":    CodeUndecodableSpec,
		"too-many-slices":  CodeInvalidSpec,
		"oversized-config": CodeInvalidSpec,
	} {
		rec := postBatch(h, readSeed(t, "FuzzBatchSpec", seed))
		checkBatchResponse(t, rec)
		var env errorEnvelope
		if rec.Code == http.StatusBadRequest {
			json.Unmarshal(rec.Body.Bytes(), &env) // checkBatchResponse decoded it
		}
		if env.Error.Code != code {
			t.Errorf("%s: status %d, code %q; want code %q", seed, rec.Code, env.Error.Code, code)
		}
	}
}
