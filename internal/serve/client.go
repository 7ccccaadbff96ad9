package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"rsepsim/internal/metrics"
	"rsepsim/internal/runner"
	"rsepsim/internal/store"
)

// NewTransport returns an http.Transport tuned for daemon traffic: explicit
// dial, TLS and response-header timeouts so a dead or wedged daemon surfaces
// as an error instead of a goroutine parked forever, and a pooled set of
// keep-alive connections reused across batches. There is no
// whole-request timeout on purpose — batch streams legitimately run for
// hours; per-phase timeouts plus the caller's context bound everything else.
func NewTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout: 5 * time.Second,
		// A daemon answers request headers immediately (results stream after),
		// so a long silence before headers means it is gone, not busy.
		ResponseHeaderTimeout: 30 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
		MaxIdleConns:          128,
		MaxIdleConnsPerHost:   32,
		IdleConnTimeout:       90 * time.Second,
		ForceAttemptHTTP2:     true,
	}
}

// defaultHTTPClient is shared by every Client so the connection pool is:
// clients of the same daemon reuse warm connections across batches instead
// of redialing per client.
var defaultHTTPClient = &http.Client{Transport: NewTransport()}

// Client drives a remote rsepd daemon through the same interface the
// in-process scheduler offers: it is a runner.BatchRunner, so experiment
// code pointed at a Client instead of a Scheduler runs unchanged — including
// progress callbacks, result ordering and cancellation semantics.
type Client struct {
	base *url.URL
	hc   *http.Client

	mu       sync.Mutex
	counters runner.Counters
}

var _ runner.BatchRunner = (*Client)(nil)

// NewClient returns a client for the daemon at baseURL (e.g.
// "http://localhost:8321"). The URL's scheme and host are validated here;
// the daemon itself is not contacted until the first call. All clients share
// one pooled, timeout-hardened http.Client (see NewTransport).
func NewClient(baseURL string) (*Client, error) {
	return NewClientWith(baseURL, nil)
}

// NewClientWith is NewClient with an explicit http.Client — the seam tests,
// instrumentation and custom deployments (mTLS, proxies) use. A nil hc means
// the shared default.
func NewClientWith(baseURL string, hc *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("serve: bad server URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("serve: server URL %q needs an http(s) scheme", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("serve: server URL %q has no host", baseURL)
	}
	if hc == nil {
		hc = defaultHTTPClient
	}
	return &Client{base: u, hc: hc}, nil
}

func (c *Client) endpoint(path string) string {
	u := *c.base
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	return u.String()
}

// RunBatch submits the batch and consumes the response stream. Results come
// back in submission order, one per job, exactly as from a local scheduler.
// A cancelled context returns everything received so far plus a
// *runner.PartialError, mirroring local semantics: jobs resolved before the
// cut carry stats (and are in the daemon's store), the rest carry the
// cancellation cause.
func (c *Client) RunBatch(ctx context.Context, b runner.Batch) ([]runner.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]runner.Result, len(b.Jobs))
	for i := range b.Jobs {
		results[i].Job = b.Jobs[i]
	}
	if len(b.Jobs) == 0 {
		return results, nil
	}

	body, err := json.Marshal(b.Spec())
	if err != nil {
		return results, fmt.Errorf("serve: encoding batch: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.endpoint("/v1/batches"), bytes.NewReader(body))
	if err != nil {
		return results, fmt.Errorf("serve: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")

	resp, err := c.hc.Do(req)
	if err != nil {
		return c.seal(ctx, b, results, fmt.Errorf("serve: %w", err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return results, decodeError(resp)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16<<20) // a result event is small; leave headroom
	done := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			// Corruption mid-event: a proxy or a cut connection mangled the
			// stream. Typed, so callers can tell it from a refused batch.
			return c.seal(ctx, b, results, &StreamError{Resolved: done, Err: fmt.Errorf("undecodable event: %w", err)})
		}
		switch ev.Event {
		case "result":
			var bad error
			switch {
			case ev.Index < 0 || ev.Index >= len(results):
				bad = fmt.Errorf("result index %d out of range", ev.Index)
			case (ev.Stats == nil) == (ev.JobError == ""):
				bad = fmt.Errorf("result %d carries neither or both of stats and job_error", ev.Index)
			case results[ev.Index].Stats != nil || results[ev.Index].Err != nil:
				bad = fmt.Errorf("result %d resolved twice", ev.Index)
			}
			if bad != nil {
				return c.seal(ctx, b, results, &StreamError{Resolved: done, Err: bad})
			}
			if ev.JobError != "" {
				results[ev.Index].Err = errors.New(ev.JobError)
			} else {
				results[ev.Index].Stats = ev.Stats
			}
			done++
			if b.OnProgress != nil {
				b.OnProgress(runner.Progress{
					Done:     done,
					Total:    len(b.Jobs),
					Index:    ev.Index,
					CacheHit: ev.CacheHit,
					Job:      b.Jobs[ev.Index],
					Stats:    results[ev.Index].Stats,
					Err:      results[ev.Index].Err,
				})
			}
		case "slice":
			if b.OnSlice != nil && ev.Index >= 0 && ev.Index < len(results) {
				b.OnSlice(runner.SliceProgress{
					Index:   ev.Index,
					Slice:   ev.Slice,
					Slices:  ev.Slices,
					Resumed: ev.Resumed,
				})
			}
		case "done":
			if ev.Counters != nil {
				c.mu.Lock()
				c.counters = c.counters.Add(*ev.Counters)
				c.mu.Unlock()
			}
			switch {
			case ev.Partial != nil:
				return results, ev.Partial.partialError()
			case done != len(results):
				// Only a partial final event may leave jobs unresolved.
				return c.seal(ctx, b, results, &StreamError{Resolved: done, Err: fmt.Errorf("final event after %d of %d results", done, len(results))})
			case ev.Error != "":
				// The daemon's only non-partial batch error is the
				// first-failure contract; rebuild it typed from the per-job
				// errors the stream already delivered (same message bytes).
				for i := range results {
					if results[i].Err != nil {
						return results, &runner.JobFailure{Index: i, Bench: results[i].Job.Bench, Err: results[i].Err}
					}
				}
				return results, errors.New(ev.Error)
			}
			return results, nil
		}
	}
	// The stream ended without a final event: the connection was cut, by our
	// own cancellation or by the server going away.
	err = sc.Err()
	if err == nil {
		err = errors.New("stream ended before the final event")
	}
	return c.seal(ctx, b, results, &StreamError{Resolved: done, Err: err})
}

// seal converts a cut-off batch into local-equivalent results, preserving
// the local error taxonomy:
//
//   - our own context was cancelled → *runner.PartialError with the
//     cancellation cause, finished/aborted keys split exactly as an
//     in-process cancelled batch reports them;
//   - every job resolved and only the final event was lost → the local
//     success/first-failure contract applies;
//   - the stream was cut or corrupted mid-batch (*StreamError) → a
//     *runner.PartialError whose cause is the typed stream error: the remote
//     run was effectively cancelled out from under us, finished jobs are real
//     (their results are in the daemon's store) and only the aborted keys
//     need resubmitting;
//   - otherwise (the daemon never answered: dial refusal, header timeout) →
//     the plain transport error; unresolved jobs carry it, but the run is
//     NOT a PartialError — nothing was admitted, there is nothing partial
//     about it.
func (c *Client) seal(ctx context.Context, b runner.Batch, results []runner.Result, err error) ([]runner.Result, error) {
	if ctx.Err() != nil {
		cause := context.Cause(ctx)
		for i := range results {
			if results[i].Stats == nil && results[i].Err == nil {
				results[i].Err = cause
			}
		}
		pe := partial(b, results, cause)
		// Mirror the local rule: a cancellation that landed after every job
		// finished lost nothing.
		if pe.Done == len(results) {
			return results, nil
		}
		return results, pe
	}

	resolved := 0
	for i := range results {
		if results[i].Stats != nil || results[i].Err != nil {
			resolved++
		}
	}
	if resolved == len(results) {
		// Only the final event was lost; apply the local contract.
		for i := range results {
			if results[i].Err != nil {
				return results, &runner.JobFailure{Index: i, Bench: results[i].Job.Bench, Err: results[i].Err}
			}
		}
		return results, nil
	}
	for i := range results {
		if results[i].Stats == nil && results[i].Err == nil {
			results[i].Err = err
		}
	}
	var se *StreamError
	if errors.As(err, &se) {
		// The batch was admitted and then the stream died: report the
		// finished/aborted split so callers resubmit exactly the remainder.
		return results, partial(b, results, err)
	}
	return results, err
}

// partial builds the *runner.PartialError of a cut-off batch: its unique keys
// split, in first-submission order, into finished and aborted. A key counts as
// finished only if its stats actually arrived — a cut can never demote
// finished work, nor promote unfinished.
func partial(b runner.Batch, results []runner.Result, cause error) *runner.PartialError {
	pe := &runner.PartialError{Total: len(results), Err: cause}
	seen := make(map[runner.Key]bool)
	for i := range results {
		ok := results[i].Stats != nil
		if ok {
			pe.Done++
		}
		k := b.Jobs[i].Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if ok {
			pe.Finished = append(pe.Finished, k)
		} else {
			pe.Aborted = append(pe.Aborted, k)
		}
	}
	return pe
}

// Counters reports the summed store-counter deltas of every batch this
// client has run — the remote analogue of a local store's Counters, so
// command-line hit/miss reporting works against either. Deltas are
// attributed per batch by the daemon; with unrelated batches running
// concurrently server-side the attribution is approximate.
func (c *Client) Counters() runner.Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// Result fetches one stored result by key, straight from the daemon's store
// (GET /v1/results/{id}). A result exists once any batch has simulated the
// key; os.ErrNotExist-equivalent absence is reported as an error.
func (c *Client) Result(ctx context.Context, k runner.Key) (*metrics.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.endpoint("/v1/results/"+store.ID(k)), nil)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var env struct {
		Stats *metrics.Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("serve: undecodable envelope: %w", err)
	}
	if env.Stats == nil {
		return nil, errors.New("serve: envelope carries no stats")
	}
	return env.Stats, nil
}

// Status fetches the daemon's scheduler gauges and store counters
// (GET /v1/status).
func (c *Client) Status(ctx context.Context) (*StatusResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoint("/v1/status"), nil)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("serve: undecodable status: %w", err)
	}
	return &st, nil
}

// Healthz probes the daemon once.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoint("/healthz"), nil)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: unhealthy: %s", resp.Status)
	}
	return nil
}
