// Package opaqclient is the client side of the binary ingest path: it
// batches elements locally and posts them as runio ingest frames over
// HTTP (NewHTTP), so callers hit the wire-speed path by default instead
// of per-element JSON.
//
// Batches flush on two triggers, mirroring the server's EpochPolicy
// shape: a size trigger (MaxBatch elements) and an optional wall-clock
// trigger (FlushInterval), whichever fires first. Every flush is one data
// frame acknowledged at batch granularity; an acked batch is resident in
// the server's engine and included in any later checkpoint.
//
// Backpressure is first-class: when the server sheds a batch, Flush (or
// the Add that triggered it) returns a *Backpressure carrying the
// server's Retry-After hint, and the batch stays buffered — the caller
// backs off and retries, or keeps Adding and lets the interval trigger
// retry, without losing elements.
package opaqclient

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"opaq/internal/runio"
)

// DefaultMaxBatch is the size trigger when Options.MaxBatch is zero: 8192
// elements keeps a default int64 frame at 64 KiB — large enough to
// amortize the round trip, small enough to stay far under frame and body
// limits.
const DefaultMaxBatch = 8192

// Options configures a Client.
type Options struct {
	// Tenant routes batches on multi-tenant servers. Empty means the
	// server's default tenant.
	Tenant string
	// MaxBatch is the size trigger: a batch flushes as soon as it holds
	// this many elements. 0 means DefaultMaxBatch.
	MaxBatch int
	// FlushInterval, when positive, is the wall-clock trigger: a
	// background goroutine flushes any buffered elements this often, so a
	// slow producer's elements still become queryable promptly. Flush
	// errors other than backpressure are sticky and surface on the next
	// Add/Flush/Close.
	FlushInterval time.Duration
	// HTTPClient overrides the client batches are posted with. nil means
	// http.DefaultClient.
	HTTPClient *http.Client
}

// Backpressure is the error a shed batch returns: the server's unsealed
// backlog is over its bound. The batch remains buffered in the client;
// retry after RetryAfter.
type Backpressure struct {
	// RetryAfter is the server's hint for when the backlog plausibly
	// drained.
	RetryAfter time.Duration
	// Msg is the server's diagnostic.
	Msg string
}

func (b *Backpressure) Error() string {
	return fmt.Sprintf("opaqclient: server backpressure (retry after %v): %s", b.RetryAfter, b.Msg)
}

// Client batches elements toward one server. All methods are safe for
// concurrent use; batching keeps element order within one goroutine.
type Client[T cmp.Ordered] struct {
	codec    runio.Codec[T]
	url      string
	hc       *http.Client
	maxBatch int

	mu        sync.Mutex
	buf       []T
	frame     []byte
	payload   []byte // response-frame scratch
	lastN     int64
	journaled int64
	err       error // sticky background-flush error

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewHTTP returns a client posting binary batches to baseURL's ingest
// route — POST {baseURL}/ingest, or /t/{tenant}/ingest when
// Options.Tenant is set.
func NewHTTP[T cmp.Ordered](baseURL string, codec runio.Codec[T], opts Options) *Client[T] {
	url := baseURL + "/ingest"
	if opts.Tenant != "" {
		url = baseURL + "/t/" + opts.Tenant + "/ingest"
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	maxBatch := opts.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	c := &Client[T]{
		codec:    codec,
		url:      url,
		hc:       hc,
		maxBatch: maxBatch,
		buf:      make([]T, 0, maxBatch),
		stop:     make(chan struct{}),
	}
	if opts.FlushInterval > 0 {
		c.wg.Add(1)
		go c.flushLoop(opts.FlushInterval)
	}
	return c
}

// flushLoop is the wall-clock trigger: like the server's EpochPolicy
// interval, it bounds how stale a buffered element can get.
func (c *Client[T]) flushLoop(interval time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.mu.Lock()
			err := c.flushLocked()
			var bp *Backpressure
			if err != nil && !errors.As(err, &bp) {
				// Backpressure heals on a later tick; anything else is
				// surfaced to the producer on its next call.
				c.err = err
			}
			c.mu.Unlock()
		}
	}
}

// Add buffers one element, flushing when the size trigger fires. The
// returned error is the flush's (including *Backpressure, with the
// element still buffered) or a sticky interval-flush failure.
func (c *Client[T]) Add(v T) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.takeErr(); err != nil {
		return err
	}
	c.buf = append(c.buf, v)
	if len(c.buf) >= c.maxBatch {
		return c.flushLocked()
	}
	return nil
}

// AddBatch buffers a batch, flushing every MaxBatch elements. On
// backpressure the unflushed remainder stays buffered.
func (c *Client[T]) AddBatch(vs []T) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.takeErr(); err != nil {
		return err
	}
	for len(vs) > 0 {
		take := c.maxBatch - len(c.buf)
		if take > len(vs) {
			take = len(vs)
		}
		c.buf = append(c.buf, vs[:take]...)
		vs = vs[take:]
		if len(c.buf) >= c.maxBatch {
			if err := c.flushLocked(); err != nil {
				// Keep the tail too: nothing is dropped on backpressure.
				c.buf = append(c.buf, vs...)
				return err
			}
		}
	}
	return nil
}

// Flush sends any buffered elements now.
func (c *Client[T]) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.takeErr(); err != nil {
		return err
	}
	return c.flushLocked()
}

// N returns the server engine's element count from the last ack — a
// read-your-writes watermark: every element this client flushed
// successfully is included.
func (c *Client[T]) N() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastN
}

// Journaled returns the cumulative count of elements a coordinator
// accepted into its write-ahead journal (202 + X-Opaq-Journaled: true)
// instead of a live worker. Journaled elements are durable and will be
// replayed to the fleet, but they are not yet reflected in N().
func (c *Client[T]) Journaled() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journaled
}

// Buffered returns the number of elements awaiting a flush.
func (c *Client[T]) Buffered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

// Close stops the interval trigger and flushes buffered elements. A
// backpressure shed on this final flush is returned as the *Backpressure
// it is — the caller decides whether to retry with a new client or drop
// the batch.
func (c *Client[T]) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.takeErr(); err != nil {
		return err
	}
	return c.flushLocked()
}

// takeErr surfaces and clears the sticky interval-flush error.
func (c *Client[T]) takeErr() error {
	err := c.err
	c.err = nil
	return err
}

// flushLocked ships the buffer as one data frame. On success the buffer
// empties; on error (backpressure included) every unacked element stays.
func (c *Client[T]) flushLocked() error {
	if len(c.buf) == 0 {
		return nil
	}
	var err error
	// The URL routes the batch; the frame's tenant field stays empty so
	// the same client works against single-engine and registry servers.
	c.frame, err = runio.AppendDataFrame(c.frame[:0], c.codec, "", c.buf)
	if err != nil {
		return err
	}
	acked, n, journaled, err := c.post()
	if int(acked) >= len(c.buf) {
		c.buf = c.buf[:0]
	} else if acked > 0 {
		// Partial acks only occur on multi-frame bodies, which one flush
		// never sends, but honor them defensively: drop what landed, keep
		// the rest buffered for the next flush.
		c.buf = c.buf[:copy(c.buf, c.buf[acked:])]
	}
	if acked > 0 {
		if journaled {
			// A journaled ack means durable-at-the-coordinator, not
			// resident-in-an-engine: count it, but leave the N() watermark
			// to real worker acks.
			c.journaled += int64(acked)
		} else {
			c.lastN = n
		}
	}
	return err
}

// post ships the encoded frame in one request and returns the server's
// ack: elements acknowledged and the engine's element count. journaled
// reports a coordinator that accepted the batch into its write-ahead
// journal (202 + X-Opaq-Journaled) rather than a live worker — the batch
// is durable and will be replayed, but n is not a read-your-writes
// watermark for it. A shed batch returns a *Backpressure.
func (c *Client[T]) post() (acked uint32, n int64, journaled bool, err error) {
	resp, err := c.hc.Post(c.url, "application/octet-stream", bytes.NewReader(c.frame))
	if err != nil {
		return 0, 0, false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	journaled = resp.Header.Get("X-Opaq-Journaled") == "true"
	h, err := runio.ReadFrameHeader(resp.Body, 0)
	if err != nil {
		// Not a frame body: a JSON error from a non-binary-aware route.
		return 0, 0, false, fmt.Errorf("opaqclient: %s: http %d (no frame body)", c.url, resp.StatusCode)
	}
	c.payload, err = runio.ReadFramePayload(resp.Body, h, c.payload)
	if err != nil {
		return 0, 0, false, err
	}
	acked, n, err = decodeResponse(h, c.payload)
	if err != nil || acked > 0 || h.Type != runio.FrameAck {
		return acked, n, journaled, err
	}
	// The body is ack-then-maybe-nack; a zero ack with a trailing nack
	// carries the real story (backpressure or a protocol rejection).
	if h2, err2 := runio.ReadFrameHeader(resp.Body, 0); err2 == nil {
		c.payload, err2 = runio.ReadFramePayload(resp.Body, h2, c.payload)
		if err2 == nil {
			if _, _, nerr := decodeResponse(h2, c.payload); nerr != nil {
				return acked, n, journaled, nerr
			}
		}
	}
	return acked, n, journaled, nil
}

// decodeResponse turns a server response frame into the post result:
// acks yield counts, nacks yield *Backpressure (retry hint present) or a
// plain protocol error.
func decodeResponse(h runio.FrameHeader, payload []byte) (uint32, int64, error) {
	switch h.Type {
	case runio.FrameAck:
		count, n, err := runio.DecodeAckPayload(payload)
		return count, n, err
	case runio.FrameNack:
		retry, msg, err := runio.DecodeNackPayload(payload)
		if err != nil {
			return 0, 0, err
		}
		if retry > 0 {
			return 0, 0, &Backpressure{RetryAfter: time.Duration(retry) * time.Second, Msg: msg}
		}
		return 0, 0, fmt.Errorf("opaqclient: server rejected batch: %s", msg)
	default:
		return 0, 0, fmt.Errorf("opaqclient: unexpected frame type %d in response", h.Type)
	}
}
