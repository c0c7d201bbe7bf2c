package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"opaq/internal/engine"
)

// TestWorkerClientHonorsContext is the retry-backoff regression test: a
// canceled context must abort the retry loop — including mid-backoff —
// instead of sleeping out the full schedule, so a draining coordinator
// is never pinned by requests to a dead worker.
func TestWorkerClientHonorsContext(t *testing.T) {
	// An address nothing listens on: every attempt fails at transport
	// level, which is what drives the backoff path.
	const deadURL = "http://127.0.0.1:1/t/x/summary"
	c := &WorkerClient{Attempts: 5, Backoff: 30 * time.Second}

	// Pre-canceled: not a single backoff tick may elapse.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := c.Do(ctx, http.MethodGet, deadURL, "", nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Do error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-canceled Do took %v", elapsed)
	}

	// Canceled mid-backoff: with a 30s first backoff, only the context
	// can unblock the call this fast.
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start = time.Now()
	_, _, err := c.GetBody(ctx, deadURL)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-backoff GetBody error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("mid-backoff cancellation took %v, backoff slept through it", elapsed)
	}
}

// TestWorkerClientBackoffCap pins the retry schedule's ceiling: the
// delay doubles from its starting point but never past maxBackoff, so a
// raised attempt count against a long-dead owner costs a bounded stall
// per retry instead of a geometric one.
func TestWorkerClientBackoffCap(t *testing.T) {
	d := 50 * time.Millisecond
	var total time.Duration
	for i := 0; i < 10; i++ {
		d = nextBackoff(d)
		total += d
		if d > maxBackoff {
			t.Fatalf("step %d: backoff %v exceeds cap %v", i, d, maxBackoff)
		}
	}
	if d != maxBackoff {
		t.Fatalf("after 10 doublings backoff = %v, want pinned at %v", d, maxBackoff)
	}
	// 100ms..1.6s doubling, then capped at 2s for the remaining 5 steps.
	want := 100*time.Millisecond + 200*time.Millisecond + 400*time.Millisecond +
		800*time.Millisecond + 1600*time.Millisecond + 5*maxBackoff
	if total != want {
		t.Fatalf("10-retry schedule sleeps %v, want %v", total, want)
	}
	// An explicit Backoff above the cap is honored as the first delay
	// (the cap bounds growth, it does not clamp configuration), and the
	// very next doubling lands on the cap.
	if got := nextBackoff(30 * time.Second); got != maxBackoff {
		t.Fatalf("nextBackoff(30s) = %v, want %v", got, maxBackoff)
	}
}

// TestWorkerClientConditionalGet pins the GetBodyTag protocol: the tag
// travels as If-None-Match, a 304 comes back tagged and bodyless, and a
// changed resource answers 200 with the fresh tag.
func TestWorkerClientConditionalGet(t *testing.T) {
	var current atomic.Value
	current.Store(`"v1"`)
	var conditional atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		etag := current.Load().(string)
		w.Header().Set("ETag", etag)
		if got := r.Header.Get("If-None-Match"); got != "" {
			conditional.Add(1)
			if got == etag {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		w.Write([]byte("body-" + etag))
	}))
	defer srv.Close()

	c := &WorkerClient{}
	ctx := context.Background()
	status, body, etag, err := c.GetBodyTag(ctx, srv.URL, "")
	if err != nil || status != http.StatusOK || etag != `"v1"` || string(body) != `body-"v1"` {
		t.Fatalf("cold fetch: status %d etag %q body %q err %v", status, etag, body, err)
	}
	status, body, etag, err = c.GetBodyTag(ctx, srv.URL, etag)
	if err != nil || status != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("warm fetch: status %d body %q err %v, want bodyless 304", status, body, err)
	}
	if etag != `"v1"` {
		t.Fatalf("304 etag %q", etag)
	}
	current.Store(`"v2"`)
	status, body, etag, err = c.GetBodyTag(ctx, srv.URL, `"v1"`)
	if err != nil || status != http.StatusOK || etag != `"v2"` || string(body) != `body-"v2"` {
		t.Fatalf("invalidated fetch: status %d etag %q body %q err %v", status, etag, body, err)
	}
	if conditional.Load() != 2 {
		t.Fatalf("server saw %d conditional requests, want 2", conditional.Load())
	}
}

// TestWorkerClientReadBodySized pins readBody, which both the relayed
// ingest body and a fetched summary go through: with the sender's length
// it reads a body in one allocation, and a missing, wrong or uncapped
// length still yields the whole body.
func TestWorkerClientReadBodySized(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 1<<15) // 512 KiB
	rd := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		if _, err := readBody(rd, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("readBody with Content-Length: %.1f allocs/op, want 1", allocs)
	}
	for _, length := range []int64{-1, 0, 1, int64(len(body)) - 1, int64(len(body)) + 7, engine.DefaultMaxBodyBytes + 1} {
		got, err := readBody(bytes.NewReader(body), length)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("length %d: read %d bytes, err %v; want the whole %d-byte body", length, len(got), err, len(body))
		}
	}
	var tooLarge *http.MaxBytesError
	capped := http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), 1<<10)
	if _, err := readBody(capped, int64(len(body))); !errors.As(err, &tooLarge) {
		t.Fatalf("body past the cap: err %v, want *http.MaxBytesError", err)
	}
}
