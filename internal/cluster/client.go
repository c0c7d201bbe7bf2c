package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"opaq/internal/engine"
)

// Client-side defaults. Three attempts with doubling backoff ride out a
// worker restart measured in tens of milliseconds without stretching a
// genuinely-down worker's failure past ~200ms per call.
const (
	defaultAttempts = 3
	defaultBackoff  = 50 * time.Millisecond
	// maxBackoff caps the doubling: raised attempt counts against a
	// long-dead owner cost at most this much per retry instead of an
	// unbounded geometric stall.
	maxBackoff = 2 * time.Second
)

// nextBackoff doubles a retry delay up to maxBackoff.
func nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > maxBackoff {
		return maxBackoff
	}
	return d
}

// sharedTransport pools keep-alive connections to workers across every
// WorkerClient that does not bring its own http.Client. The per-host
// idle pool is sized for scatter-gather fan-out (one conditional GET
// per owner per query, all concurrent), so the warm query path reuses
// established connections instead of paying TCP setup per request —
// http.DefaultTransport's 2 idle conns per host would thrash under
// exactly that load.
var sharedTransport = &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 32,
	IdleConnTimeout:     90 * time.Second,
}

// defaultWorkerHTTP is the client WorkerClient falls back to: pooled
// transport, 5-second timeout (a worker answering slower than that is
// down for serving purposes).
var defaultWorkerHTTP = &http.Client{Timeout: 5 * time.Second, Transport: sharedTransport}

// NewWorkerHTTPClient returns an http.Client on the shared keep-alive
// pool with the given per-request timeout — what `opaq coord` and the
// benchmarks hand to WorkerClient so explicit timeouts don't silently
// forfeit connection reuse.
func NewWorkerHTTPClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: sharedTransport}
}

// WorkerClient is the coordinator's HTTP client to workers: bounded
// retries with doubling backoff on transport errors and on gateway-ish
// statuses (502/503/504), which a restarting worker's listener can emit.
// 4xx and plain 5xx responses are returned to the caller unretried — they
// are answers, not outages. Every call takes a context honored across
// attempts AND backoff sleeps: a canceled request (client gone, or the
// coordinator draining on SIGTERM) stops retrying immediately instead of
// pinning the handler for the rest of the schedule.
type WorkerClient struct {
	// HTTP is the underlying client; nil means the shared pooled client
	// with a 5-second timeout.
	HTTP *http.Client
	// Attempts is the total try count (0 means 3).
	Attempts int
	// Backoff is the first retry delay, doubling per retry up to a 2s cap
	// (0 means 50ms).
	Backoff time.Duration
}

func (c *WorkerClient) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultWorkerHTTP
}

// Do issues one logical request with retries. body may be nil; it is
// replayed from the byte slice on every attempt. header (nil is fine)
// is applied to every attempt. Cancellation of ctx aborts in-flight
// attempts and backoff sleeps alike, returning the context's error.
func (c *WorkerClient) Do(ctx context.Context, method, url, contentType string, body []byte, header http.Header) (*http.Response, error) {
	attempts := c.Attempts
	if attempts <= 0 {
		attempts = defaultAttempts
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			// The backoff sleep must not outlive the caller: select against
			// the context so a draining coordinator (or a hung-up client)
			// unblocks the handler immediately.
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
			backoff = nextBackoff(backoff)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return nil, err
		}
		for k, vs := range header {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			lastErr = err
			continue
		}
		switch resp.StatusCode {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			lastErr = fmt.Errorf("cluster: %s %s: status %d", method, url, resp.StatusCode)
			resp.Body.Close()
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("cluster: worker unreachable after %d attempts: %w", attempts, lastErr)
}

// GetBody is Do(GET) returning the response body and status. Transport
// failure after retries returns err != nil; any HTTP status is a success
// at this layer.
func (c *WorkerClient) GetBody(ctx context.Context, url string) (status int, body []byte, err error) {
	status, body, _, err = c.GetBodyTag(ctx, url, "")
	return status, body, err
}

// GetBodyTag is the conditional-fetch variant of GetBody: a non-empty
// ifNoneMatch rides as If-None-Match, and the response's ETag comes back
// alongside the status and body. A 304 answer has no body by protocol —
// the caller reuses what it cached under ifNoneMatch.
func (c *WorkerClient) GetBodyTag(ctx context.Context, url, ifNoneMatch string) (status int, body []byte, etag string, err error) {
	var header http.Header
	if ifNoneMatch != "" {
		header = http.Header{"If-None-Match": {ifNoneMatch}}
	}
	resp, err := c.Do(ctx, http.MethodGet, url, "", nil, header)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	b, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return 0, nil, "", err
	}
	return resp.StatusCode, b, resp.Header.Get("ETag"), nil
}

// readBody reads r to EOF into one buffer sized from the sender's declared
// length, trusted up to engine.DefaultMaxBodyBytes, so a body of that
// length costs one allocation, and the raw summary a gather-cache entry
// keeps pins no spare capacity its byte count would miss. An unknown or
// larger length reads as io.ReadAll does, and a wrong one still reads the
// whole body: the length only sizes the buffer.
func readBody(r io.Reader, length int64) ([]byte, error) {
	if length <= 0 || length > engine.DefaultMaxBodyBytes {
		return io.ReadAll(r)
	}
	// The spare byte lets the read that reports EOF land without growing
	// the buffer.
	b := make([]byte, 0, length+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
