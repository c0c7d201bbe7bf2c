package cluster

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opaq/internal/core"
	"opaq/internal/engine"
	"opaq/internal/runio"
)

// Coordinator errors. They wrap the engine's HTTP sentinels, so the
// shared error mapping (engine.WriteError) answers them.
var (
	// ErrNoSurvivors reports a scatter-gather in which every owner of the
	// tenant was unreachable — there is nothing to answer from, degraded
	// or otherwise (503).
	ErrNoSurvivors = fmt.Errorf("cluster: %w: no surviving owner", engine.ErrUnavailable)
	// errBadWorker reports a worker answering outside its protocol
	// (unexpected status, undecodable summary) — a bug or version skew,
	// not an outage (502).
	errBadWorker = fmt.Errorf("cluster: %w: unexpected worker response", engine.ErrBadGateway)
)

// maxProxyBody bounds an ingest body buffered for relay; workers enforce
// their own (smaller) limits on top.
const maxProxyBody = 64 << 20

// Options configures a Coordinator.
type Options[T cmp.Ordered] struct {
	// Workers is the fleet: worker base URLs ("http://host:port"). At
	// least one is required; the set is fixed for the coordinator's
	// lifetime (restart to re-shard).
	Workers []string
	// Spread is the number of distinct workers a tenant's data may live
	// on: ingest round-robins across the tenant's first Spread ring
	// owners (failing over past down ones) and queries merge all of them.
	// 1 (the default) pins each tenant to a single worker; higher spreads
	// trade query fan-out for ingest balance and faster failover.
	Spread int
	// VirtualNodes is the consistent-hash points per worker (0 = 64).
	VirtualNodes int
	// Codec decodes worker summaries; required.
	Codec runio.Codec[T]
	// Parse converts query-string keys (selectivity bounds); required.
	Parse engine.ParseKey[T]
	// Client is the worker HTTP client; nil uses defaults (3 attempts,
	// 50ms doubling backoff, 5s timeout, pooled keep-alive transport).
	Client *WorkerClient
	// GatherCacheBytes bounds the gather cache's resident summaries
	// (0 = DefaultGatherCacheBytes). Least-recently-queried tenants are
	// evicted past the budget.
	GatherCacheBytes int64
	// DisableGatherCache turns the query fast path off entirely — no
	// per-owner summary cache, no merged-summary reuse, no singleflight
	// coalescing. Every query then re-fetches and re-merges from scratch,
	// which is the reference behavior the cache-equivalence harness
	// shadows against.
	DisableGatherCache bool
	// WALDir, when non-empty, enables the ingest write-ahead journal: a
	// batch none of its tenant's owners will take is journaled there
	// (fsync'd) and answered 202 Accepted with X-Opaq-Journaled: true
	// instead of a 503, then replayed to recovered owners in per-tenant
	// order with at-least-once delivery. Empty keeps the pre-WAL
	// behavior: an all-owners-down ingest is the client's to retry.
	WALDir string
	// WALMaxBytes bounds the journals' total on-disk bytes
	// (0 = DefaultWALMaxBytes). Appends past the budget are dropped
	// (wal_drops) and the ingest fails 503 as it would without a journal.
	WALMaxBytes int64
	// OwnerQuarantine is how long an owner that failed an ingest relay is
	// deprioritized — moved to the back of the failover order instead of
	// being redialed first — before it is trusted again (0 = 2s; cleared
	// early by any successful delivery, direct or replayed).
	OwnerQuarantine time.Duration
}

// defaultOwnerQuarantine deprioritizes a freshly failed owner long enough
// that a burst of ingests does not pay the full retry schedule against it
// on every Nth request, and short enough that a restarted worker is
// redialed within a couple of seconds even with no replay traffic.
const defaultOwnerQuarantine = 2 * time.Second

// Coordinator scatter-gathers a worker fleet behind the engine's HTTP
// surface. All methods are safe for concurrent use.
type Coordinator[T cmp.Ordered] struct {
	opts   Options[T]
	ring   *Ring
	client *WorkerClient
	rr     sync.Map // tenant name -> *atomic.Uint64 ingest cursor

	// ctx is the coordinator's lifetime: every fan-out runs under a
	// context that dies with it, so Close unblocks retry backoffs against
	// dead workers and a draining server is never pinned.
	ctx    context.Context
	cancel context.CancelFunc

	// cache is the gather fast path (nil when disabled); flights
	// coalesces concurrent gathers per tenant.
	cache    *gatherCache[T]
	flightMu sync.Mutex
	flights  map[string]*flight[T]

	// wal is the ingest write-ahead journal (nil when disabled); the
	// replay goroutine is accounted in wg and joined by Close.
	wal        *WAL
	wg         sync.WaitGroup
	closeOnce  sync.Once
	quarantine time.Duration
	// ownerDown maps owner URL -> *atomic.Int64 UnixNano of the last
	// failed relay (0 after a success): the quarantine clock that keeps
	// the round-robin cursor from dialing a known-dead owner first.
	ownerDown sync.Map

	// Fast-path counters, surfaced on /stats and /healthz.
	gatherHits   atomic.Int64 // merged summary reused, MergeAll skipped
	gatherMisses atomic.Int64 // gathers that ran MergeAll
	gather304s   atomic.Int64 // per-owner conditional fetches answered 304
	gatherShared atomic.Int64 // queries that rode another query's gather
}

// flight is one in-progress gather, shared by coalesced queries.
type flight[T cmp.Ordered] struct {
	done chan struct{}
	g    *gathered[T]
	err  error
}

// New validates the options and builds the ring.
func New[T cmp.Ordered](opts Options[T]) (*Coordinator[T], error) {
	if opts.Codec == nil {
		return nil, fmt.Errorf("cluster: Options.Codec is required")
	}
	if opts.Parse == nil {
		return nil, fmt.Errorf("cluster: Options.Parse is required")
	}
	ring, err := NewRing(opts.Workers, opts.VirtualNodes)
	if err != nil {
		return nil, err
	}
	if opts.Spread == 0 {
		opts.Spread = 1
	}
	if opts.Spread < 1 {
		return nil, fmt.Errorf("cluster: Spread must be positive, got %d", opts.Spread)
	}
	client := opts.Client
	if client == nil {
		client = &WorkerClient{}
	}
	quarantine := opts.OwnerQuarantine
	if quarantine <= 0 {
		quarantine = defaultOwnerQuarantine
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator[T]{
		opts:       opts,
		ring:       ring,
		client:     client,
		ctx:        ctx,
		cancel:     cancel,
		flights:    map[string]*flight[T]{},
		quarantine: quarantine,
	}
	if !opts.DisableGatherCache {
		c.cache = newGatherCache[T](opts.GatherCacheBytes)
	}
	if opts.WALDir != "" {
		wal, err := OpenWAL(opts.WALDir, opts.WALMaxBytes)
		if err != nil {
			cancel()
			return nil, err
		}
		c.wal = wal
		c.wg.Add(1)
		go c.replayLoop()
	}
	return c, nil
}

// Close cancels the coordinator's lifetime context, aborting in-flight
// fan-outs and their retry backoffs — call it when a graceful drain
// times out so handlers stuck retrying dead workers unblock instead of
// pinning shutdown. It joins the WAL replayer and releases the journal
// file handles (pending records stay on disk for the next coordinator).
// Safe to call more than once; the coordinator must not serve new
// requests afterwards.
func (c *Coordinator[T]) Close() {
	c.cancel()
	c.closeOnce.Do(func() {
		c.wg.Wait()
		if c.wal != nil {
			c.wal.Close()
		}
	})
}

// reqCtx derives a fan-out context that dies with either the request or
// the coordinator, so both a hung-up client and a shutdown unblock the
// handler.
func (c *Coordinator[T]) reqCtx(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	stop := context.AfterFunc(c.ctx, cancel)
	return ctx, func() { stop(); cancel() }
}

// Owners returns the tenant's owner set in failover preference order.
func (c *Coordinator[T]) Owners(tenant string) []string {
	return c.ring.Owners(tenant, c.opts.Spread)
}

// Handler mounts the engine HTTP surface over the fleet: the engine's
// read routes (engine.ReadRoutes) over scatter-gather views, routed
// ingest and merged stats, each under /t/{tenant}/ plus the
// default-tenant root aliases, the admin API, and an aggregated /healthz.
func (c *Coordinator[T]) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, prefix := range []string{"", "/t/{tenant}"} {
		mux.HandleFunc("POST "+prefix+"/ingest", engine.WithTenant(c.ingest))
		mux.HandleFunc("GET "+prefix+"/stats", engine.WithTenant(c.stats))
		engine.ReadRoutes(mux, prefix, c.opts.Parse, c.opts.Codec, c.view)
	}
	mux.HandleFunc("POST /admin/tenants", c.adminCreate)
	mux.HandleFunc("GET /admin/tenants", c.adminList)
	mux.HandleFunc("DELETE /admin/tenants/{tenant}", engine.WithTenant(c.adminDelete))
	mux.HandleFunc("GET /healthz", c.healthz)
	return mux
}

// ingest relays the request body — JSON or binary frames, the worker
// handler content-negotiates — to one of the tenant's owners, round-robin
// with failover: a transport-dead or 5xx owner is skipped, the next one
// takes the batch. Because queries merge every owner's summary, a batch
// landing on any owner is equivalent; failover loses availability of a
// worker, never data. The chosen owner's response (including 409/413/429
// backpressure answers and their Retry-After) is relayed verbatim.
//
// When every owner rejects or is unreachable and the write-ahead journal
// is enabled, the already-buffered batch is journaled and answered 202
// with X-Opaq-Journaled: true instead of the 503; a tenant with journal
// backlog journals every new batch behind it, preserving per-tenant
// batch order end to end.
func (c *Coordinator[T]) ingest(tenant string, w http.ResponseWriter, r *http.Request) {
	ctx, cancel := c.reqCtx(r.Context())
	defer cancel()
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxProxyBody), r.ContentLength)
	if err != nil {
		engine.WriteError(w, fmt.Errorf("%w: reading body: %w", engine.ErrBadRequest, err))
		return
	}
	contentType := r.Header.Get("Content-Type")
	if c.wal != nil && c.wal.HasBacklog(tenant) {
		// Journaled batches must not be overtaken by direct relays.
		c.journalIngest(tenant, contentType, body, w)
		return
	}
	owners := c.Owners(tenant)
	cursorAny, _ := c.rr.LoadOrStore(tenant, new(atomic.Uint64))
	start := int(cursorAny.(*atomic.Uint64).Add(1) - 1)
	resp, err := c.deliverBatch(ctx, tenant, contentType, body, c.orderOwners(owners, start))
	if err != nil {
		if ctx.Err() != nil {
			engine.WriteError(w, ctx.Err())
			return
		}
		if c.wal != nil {
			c.journalIngest(tenant, contentType, body, w)
			return
		}
		engine.WriteError(w, err)
		return
	}
	relay(w, resp)
}

// deliverBatch posts one buffered batch to the first owner in ord that
// answers below 500, recording owner health for the quarantine order.
// Every attempt re-sends from the buffered copy — a transport error
// after part of the body was written can never leak a partially consumed
// stream to the next owner. The returned response's body is open and
// owned by the caller; all owners failing is ErrNoSurvivors (or the
// context's error when the caller is gone).
func (c *Coordinator[T]) deliverBatch(ctx context.Context, tenant, contentType string, body []byte, ord []string) (*http.Response, error) {
	var lastErr error
	for _, owner := range ord {
		resp, err := c.client.Do(ctx, http.MethodPost, owner+"/t/"+tenant+"/ingest", contentType, body, nil)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			c.noteOwnerDown(owner)
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			resp.Body.Close()
			c.noteOwnerDown(owner)
			lastErr = fmt.Errorf("%w: owner %s status %d", errBadWorker, owner, resp.StatusCode)
			continue
		}
		c.noteOwnerUp(owner)
		return resp, nil
	}
	return nil, fmt.Errorf("%w for tenant %q: %v", ErrNoSurvivors, tenant, lastErr)
}

// orderOwners rotates the owner set to the round-robin start, then moves
// owners that failed within the quarantine window to the back — a known-
// dead owner stops being dialed (and retried, and backed off against)
// first on every Nth request, so failover latency during an outage is
// one healthy dial, not a full retry schedule. Quarantined owners are
// still tried last: quarantine reorders, it never sheds.
func (c *Coordinator[T]) orderOwners(owners []string, start int) []string {
	ord := make([]string, 0, len(owners))
	var parked []string
	for i := range owners {
		owner := owners[(start+i)%len(owners)]
		if c.ownerQuarantined(owner) {
			parked = append(parked, owner)
		} else {
			ord = append(ord, owner)
		}
	}
	return append(ord, parked...)
}

func (c *Coordinator[T]) noteOwnerDown(owner string) {
	v, _ := c.ownerDown.LoadOrStore(owner, new(atomic.Int64))
	v.(*atomic.Int64).Store(time.Now().UnixNano())
}

func (c *Coordinator[T]) noteOwnerUp(owner string) {
	if v, ok := c.ownerDown.Load(owner); ok {
		v.(*atomic.Int64).Store(0)
	}
}

func (c *Coordinator[T]) ownerQuarantined(owner string) bool {
	v, ok := c.ownerDown.Load(owner)
	if !ok {
		return false
	}
	at := v.(*atomic.Int64).Load()
	return at != 0 && time.Since(time.Unix(0, at)) < c.quarantine
}

// countFrames walks a binary ingest body through the engine's frame
// checks — framing, checksums, codec kind, tenant match, NaN keys — and
// returns its element count.
func (c *Coordinator[T]) countFrames(tenant string, body []byte) (int64, error) {
	var fr engine.FrameReader[T]
	rd := bytes.NewReader(body)
	var n int64
	for {
		elems, err := fr.Next(rd, c.opts.Codec, tenant)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return 0, fmt.Errorf("%w: %w", engine.ErrBadRequest, err)
		}
		n += int64(len(elems))
	}
}

// journalIngest accepts a batch whose owners are all unavailable (or
// backlogged behind earlier journaled batches) into the write-ahead
// journal and answers 202 Accepted with X-Opaq-Journaled: true. The
// response body matches the request's wire format: JSON bodies get a
// JSON acknowledgment, frame bodies get an ack frame counting the
// batch's elements (engine count 0 — the fleet that would know is down).
// Journaling skips the workers' validation, so the body is decoded here
// with the engine's own checks (engine.DecodeKeys, engine.FrameReader):
// a batch the fleet would reject with 400 is rejected now, not accepted
// and then dropped at replay. An append past the journal budget fails
// 503 exactly as an unjournaled all-owners-down ingest would.
func (c *Coordinator[T]) journalIngest(tenant, contentType string, body []byte, w http.ResponseWriter) {
	binary := engine.IsBinaryIngest(contentType)
	kind := walBodyJSON
	var elems int64
	var err error
	if binary {
		kind = walBodyFrames
		elems, err = c.countFrames(tenant, body)
	} else {
		_, err = engine.DecodeKeys(bytes.NewReader(body), c.opts.Parse)
	}
	if err != nil {
		engine.WriteError(w, err)
		return
	}
	pending, err := c.wal.Append(tenant, kind, body)
	if err != nil {
		engine.WriteError(w, fmt.Errorf("%w for tenant %q: %v", ErrNoSurvivors, tenant, err))
		return
	}
	w.Header().Set("X-Opaq-Journaled", "true")
	if binary {
		ack := runio.AppendAckFrame(nil, uint32(elems), 0)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusAccepted)
		w.Write(ack)
		return
	}
	engine.WriteJSON(w, http.StatusAccepted, map[string]any{
		"journaled":     true,
		"pending_bytes": pending,
	})
}

// walStatsBlock is the journal counter block on /stats and /healthz.
func (c *Coordinator[T]) walStatsBlock() map[string]any {
	st := map[string]any{"enabled": c.wal != nil}
	if c.wal != nil {
		s := c.wal.Stats()
		st["wal_appends"] = s.Appends
		st["wal_replayed"] = s.Replayed
		st["wal_pending_bytes"] = s.PendingBytes
		st["wal_drops"] = s.Drops
		st["tenants"] = s.Tenants
	}
	return st
}

// relay copies a worker response (status, JSON body, Retry-After) out.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if v := resp.Header.Get("Retry-After"); v != "" {
		w.Header().Set("Retry-After", v)
	}
	if v := resp.Header.Get("Content-Type"); v != "" {
		w.Header().Set("Content-Type", v)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// gathered is one scatter-gather outcome: the merged summary of the
// owners that answered, plus the degradation bookkeeping.
type gathered[T cmp.Ordered] struct {
	sum     *core.Summary[T]
	partial bool     // at least one owner did not contribute
	owners  []string // the tenant's full owner set
	down    []string // owners unreachable after retries
	// key is the owner version vector this answer was built from — the
	// per-owner summary ETags (and 404 markers) joined in ring order.
	// Empty when the answer is partial or an owner went untagged; a
	// non-empty key uniquely names the merged bytes.
	key string
}

// gather answers a query, coalescing concurrent gathers for the same
// tenant into one fan-out. Coalescing must not weaken read-your-writes:
// a flight found already in progress may have fanned out before this
// query's caller saw its ingest acked, so the first such flight is only
// waited on, never consumed. A flight found after that wait necessarily
// started after this query arrived — its answer covers everything acked
// before entry — and is shared. A query burst therefore costs at most
// two fan-outs regardless of width.
func (c *Coordinator[T]) gather(ctx context.Context, tenant string) (*gathered[T], error) {
	if c.cache == nil {
		return c.gatherOnce(ctx, tenant)
	}
	joined := false
	for {
		c.flightMu.Lock()
		f := c.flights[tenant]
		if f == nil {
			f = &flight[T]{done: make(chan struct{})}
			c.flights[tenant] = f
			c.flightMu.Unlock()
			// The leader runs under the coordinator's lifetime context,
			// not its own request's: followers with live requests may be
			// waiting on this flight, and the leader's client hanging up
			// must not fail them.
			f.g, f.err = c.gatherOnce(c.ctx, tenant)
			c.flightMu.Lock()
			delete(c.flights, tenant)
			c.flightMu.Unlock()
			close(f.done)
			return f.g, f.err
		}
		c.flightMu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if joined {
			c.gatherShared.Add(1)
			return f.g, f.err
		}
		joined = true
	}
}

// gatherOnce fetches the tenant's summary from every owner concurrently
// and reduces with core.MergeAll. Owner outcomes: a summary (contributes
// — fetched fresh, or revalidated by a 304 against the gather cache), a
// 404 (tenant not on that worker — normal when ingest has not touched
// every owner), or unreachable (degrades the answer). All-404 is
// ErrUnknownTenant; no contribution with at least one owner down is
// ErrNoSurvivors.
//
// With the cache enabled, every owner is still contacted on every gather
// — the cache removes body transfer, decode, and merge work, never the
// freshness check — so cached state can never mask a down owner or a
// missed write. When the owner version vector matches the cached merged
// summary, MergeAll is skipped entirely.
func (c *Coordinator[T]) gatherOnce(ctx context.Context, tenant string) (*gathered[T], error) {
	owners := c.Owners(tenant)
	var prior map[string]ownerEntry[T]
	if c.cache != nil {
		prior = c.cache.ownersSnapshot(tenant)
	}
	type outcome struct {
		entry ownerEntry[T]
		has   bool // entry holds this owner's current summary
		fresh bool // entry came from a 200 body (vs a 304 carry-forward)
		miss  bool // clean 404
		err   error
	}
	outs := make([]outcome, len(owners))
	var wg sync.WaitGroup
	for i, owner := range owners {
		wg.Add(1)
		go func(i int, owner string) {
			defer wg.Done()
			cached, hasCached := prior[owner]
			status, body, etag, err := c.client.GetBodyTag(ctx, owner+"/t/"+tenant+"/summary", cached.etag)
			switch {
			case err != nil:
				outs[i].err = err
			case status == http.StatusNotModified:
				if !hasCached {
					outs[i].err = fmt.Errorf("%w: owner %s: unsolicited 304", errBadWorker, owner)
					return
				}
				outs[i].entry, outs[i].has = cached, true
			case status == http.StatusNotFound:
				outs[i].miss = true
			case status != http.StatusOK:
				outs[i].err = fmt.Errorf("%w: owner %s status %d", errBadWorker, owner, status)
			default:
				sum, err := core.LoadSummary[T](bytes.NewReader(body), c.opts.Codec)
				if err != nil {
					outs[i].err = fmt.Errorf("%w: owner %s summary: %v", errBadWorker, owner, err)
					return
				}
				outs[i].entry = ownerEntry[T]{etag: etag, raw: body, sum: sum}
				outs[i].has, outs[i].fresh = true, true
			}
		}(i, owner)
	}
	wg.Wait()
	g := &gathered[T]{owners: owners}
	var sums []*core.Summary[T]
	misses, revalidated := 0, 0
	var badWorker error
	// The version vector is positional over the ring-ordered owner set:
	// each slot is the owner's summary ETag or a 404 marker. ETags are
	// quoted strings, so the marker can never collide with one.
	keyParts := make([]string, 0, len(owners))
	keyOK := true
	entries := make(map[string]ownerEntry[T], len(owners))
	for i, out := range outs {
		switch {
		case out.has:
			sums = append(sums, out.entry.sum)
			if !out.fresh {
				revalidated++
			}
			if out.entry.etag == "" {
				// An untagged worker (never expected from this build) can't
				// be revalidated or vector-keyed; serve it, cache nothing.
				keyOK = false
			} else {
				entries[owners[i]] = out.entry
				keyParts = append(keyParts, out.entry.etag)
			}
		case out.miss:
			misses++
			keyParts = append(keyParts, "-")
		default:
			if errors.Is(out.err, errBadWorker) && badWorker == nil {
				badWorker = out.err
			}
			g.partial = true
			g.down = append(g.down, owners[i])
		}
	}
	if revalidated > 0 {
		c.gather304s.Add(int64(revalidated))
	}
	if len(sums) == 0 {
		// Nothing to answer from; whatever was cached describes a tenant
		// that is gone or a fleet that is down, not data we may serve.
		if c.cache != nil {
			c.cache.drop(tenant)
		}
		switch {
		case misses == len(owners):
			return nil, fmt.Errorf("%w: %q", engine.ErrUnknownTenant, tenant)
		case badWorker != nil && len(g.down) == len(owners):
			return nil, badWorker
		default:
			return nil, fmt.Errorf("%w for tenant %q (%d of %d owners down)",
				ErrNoSurvivors, tenant, len(g.down), len(owners))
		}
	}
	// A partial answer is never cached as merged: it does not determine
	// the tenant's multiset, and the next gather must rebuild from
	// whichever owners answer then.
	if !g.partial && keyOK && c.cache != nil {
		g.key = strings.Join(keyParts, "|")
	}
	if c.cache != nil {
		if sum, _, ok := c.cache.mergedFor(tenant, g.key); ok {
			// Every owner revalidated against the vector the cached merge
			// was built from: same inputs, same merge. Skip MergeAll.
			g.sum = sum
			c.gatherHits.Add(1)
			return g, nil
		}
	}
	sum, err := core.MergeAll(sums)
	if err != nil {
		return nil, fmt.Errorf("%w: merging owner summaries: %v", errBadWorker, err)
	}
	g.sum = sum
	if c.cache != nil {
		var merged *core.Summary[T]
		if g.key != "" {
			merged = sum
		}
		c.cache.commit(tenant, entries, g.key, merged)
		c.gatherMisses.Add(1)
	}
	return g, nil
}

// cacheStats is the fast-path counter block on /stats and /healthz.
func (c *Coordinator[T]) cacheStats() map[string]any {
	st := map[string]any{
		"enabled":             c.cache != nil,
		"gather_hits":         c.gatherHits.Load(),
		"gather_misses":       c.gatherMisses.Load(),
		"gather_304s":         c.gather304s.Load(),
		"gather_singleflight": c.gatherShared.Load(),
	}
	if c.cache != nil {
		bytes, tenants := c.cache.usage()
		st["bytes"] = bytes
		st["tenants"] = tenants
	}
	return st
}

// view answers the engine's read routes from a scatter-gather: the
// merged summary, a strong ETag for complete gathers, the partial flag,
// and /summary bytes shared through the gather cache.
func (c *Coordinator[T]) view(ctx context.Context, tenant string) (engine.View[T], error) {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	g, err := c.gather(ctx, tenant)
	if err != nil {
		return engine.View[T]{}, err
	}
	v := engine.View[T]{Summary: g.sum, Partial: g.partial}
	if g.key != "" {
		// Hash the vector: the joined worker tags are unbounded and leak
		// fleet internals; 128 bits of SHA-256 keep the strong-tag
		// property (vector determines bytes) in a fixed-width header.
		h := sha256.Sum256([]byte(g.key))
		v.ETag = `"` + hex.EncodeToString(h[:16]) + `"`
	}
	v.Encode = func() ([]byte, error) { return c.encodeMerged(tenant, g) }
	return v, nil
}

// encodeMerged serializes a gathered summary in the checksummed
// core.SaveSummary format — the same bytes a local engine's checkpoint
// would hold when the stream was run-aligned, which is what the
// multi-process equivalence harness asserts. A complete gather's bytes
// are attached to its cached merge, so repeat fetches skip the encode.
func (c *Coordinator[T]) encodeMerged(tenant string, g *gathered[T]) ([]byte, error) {
	if g.key != "" {
		if _, raw, ok := c.cache.mergedFor(tenant, g.key); ok && raw != nil {
			return raw, nil
		}
	}
	var buf bytes.Buffer
	if err := core.SaveSummary(&buf, g.sum, c.opts.Codec); err != nil {
		return nil, err
	}
	if g.key != "" {
		c.cache.attachMergedRaw(tenant, g.sum, buf.Bytes())
	}
	return buf.Bytes(), nil
}

func (c *Coordinator[T]) stats(tenant string, w http.ResponseWriter, r *http.Request) {
	ctx, cancel := c.reqCtx(r.Context())
	defer cancel()
	g, err := c.gather(ctx, tenant)
	if err != nil {
		engine.WriteError(w, err)
		return
	}
	engine.WriteJSON(w, http.StatusOK, map[string]any{
		"n":            g.sum.N(),
		"samples":      g.sum.SampleCount(),
		"step":         g.sum.Step(),
		"owners":       g.owners,
		"down":         g.down,
		"partial":      g.partial,
		"gather_cache": c.cacheStats(),
		"wal":          c.walStatsBlock(),
	})
}

// adminCreate creates the tenant on every owner. A 409 from an owner
// counts as success — creates are idempotent retried — so a half-created
// tenant heals on retry. Any owner unreachable fails the create (a tenant
// that silently exists on only part of its owner set would serve partial
// answers forever).
func (c *Coordinator[T]) adminCreate(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := c.reqCtx(r.Context())
	defer cancel()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		engine.WriteError(w, fmt.Errorf("%w: reading body: %v", engine.ErrBadRequest, err))
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		engine.WriteError(w, fmt.Errorf("%w: decoding body: %v", engine.ErrBadRequest, err))
		return
	}
	if !engine.ValidTenantName(req.Name) {
		engine.WriteError(w, fmt.Errorf("%w: %q", engine.ErrTenantName, req.Name))
		return
	}
	owners := c.Owners(req.Name)
	for _, owner := range owners {
		resp, err := c.client.Do(ctx, http.MethodPost, owner+"/admin/tenants", "application/json", body, nil)
		if err != nil {
			engine.WriteError(w, fmt.Errorf("%w: owner %s: %v", ErrNoSurvivors, owner, err))
			return
		}
		status := resp.StatusCode
		if status != http.StatusCreated && status != http.StatusConflict {
			relay(w, resp)
			return
		}
		resp.Body.Close()
	}
	engine.WriteJSON(w, http.StatusCreated, map[string]any{
		"tenant":  req.Name,
		"workers": owners,
	})
}

// adminList unions every worker's tenant list, annotating each tenant
// with its owner set; unreachable workers flag the listing partial.
func (c *Coordinator[T]) adminList(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := c.reqCtx(r.Context())
	defer cancel()
	type workerList struct {
		tenants []string
		err     error
	}
	workers := c.ring.Workers()
	lists := make([]workerList, len(workers))
	var wg sync.WaitGroup
	for i, worker := range workers {
		wg.Add(1)
		go func(i int, worker string) {
			defer wg.Done()
			status, body, err := c.client.GetBody(ctx, worker+"/admin/tenants")
			if err != nil {
				lists[i].err = err
				return
			}
			if status != http.StatusOK {
				lists[i].err = fmt.Errorf("%w: status %d", errBadWorker, status)
				return
			}
			var parsed struct {
				Tenants []struct {
					Name string `json:"name"`
				} `json:"tenants"`
			}
			if err := json.Unmarshal(body, &parsed); err != nil {
				lists[i].err = fmt.Errorf("%w: %v", errBadWorker, err)
				return
			}
			for _, e := range parsed.Tenants {
				lists[i].tenants = append(lists[i].tenants, e.Name)
			}
		}(i, worker)
	}
	wg.Wait()
	names := map[string]bool{}
	partial := false
	for _, l := range lists {
		if l.err != nil {
			partial = true
			continue
		}
		for _, n := range l.tenants {
			names[n] = true
		}
	}
	type entry struct {
		Name   string   `json:"name"`
		Owners []string `json:"owners"`
	}
	out := make([]entry, 0, len(names))
	for n := range names {
		out = append(out, entry{Name: n, Owners: c.Owners(n)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	engine.WriteJSON(w, http.StatusOK, map[string]any{"tenants": out, "partial": partial})
}

// adminDelete removes the tenant from every worker (not just current
// owners, so a fleet whose ring changed across restarts still cleans up).
// Unreachable workers fail the delete — a half-deleted tenant would
// resurrect from the missed worker's checkpoint.
func (c *Coordinator[T]) adminDelete(tenant string, w http.ResponseWriter, r *http.Request) {
	ctx, cancel := c.reqCtx(r.Context())
	defer cancel()
	found := false
	for _, worker := range c.ring.Workers() {
		resp, err := c.client.Do(ctx, http.MethodDelete, worker+"/admin/tenants/"+tenant, "", nil, nil)
		if err != nil {
			engine.WriteError(w, fmt.Errorf("%w: worker %s: %v", ErrNoSurvivors, worker, err))
			return
		}
		status := resp.StatusCode
		resp.Body.Close()
		switch {
		case status == http.StatusOK || status == http.StatusNoContent:
			found = true
		case status == http.StatusNotFound:
		default:
			engine.WriteError(w, fmt.Errorf("%w: worker %s status %d", errBadWorker, worker, status))
			return
		}
	}
	if c.cache != nil {
		c.cache.drop(tenant)
	}
	if c.wal != nil {
		c.wal.DropTenant(tenant)
	}
	if !found {
		engine.WriteError(w, fmt.Errorf("%w: %q", engine.ErrUnknownTenant, tenant))
		return
	}
	engine.WriteJSON(w, http.StatusOK, map[string]string{"deleted": tenant})
}

// healthz aggregates worker health: the coordinator answers 200 whenever
// it serves (its own liveness), reporting "ok" only when every worker
// responded and "degraded" otherwise, with per-worker detail, build info
// on both sides, and the gather-cache counters so a cold fast path is
// diagnosable in one round trip.
func (c *Coordinator[T]) healthz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := c.reqCtx(r.Context())
	defer cancel()
	workers := c.ring.Workers()
	type health struct {
		body map[string]any
		err  error
	}
	healths := make([]health, len(workers))
	var wg sync.WaitGroup
	for i, worker := range workers {
		wg.Add(1)
		go func(i int, worker string) {
			defer wg.Done()
			status, body, err := c.client.GetBody(ctx, worker+"/healthz")
			if err != nil {
				healths[i].err = err
				return
			}
			if status != http.StatusOK {
				healths[i].err = fmt.Errorf("status %d", status)
				return
			}
			var parsed map[string]any
			if err := json.Unmarshal(body, &parsed); err != nil {
				healths[i].err = err
				return
			}
			healths[i].body = parsed
		}(i, worker)
	}
	wg.Wait()
	out := map[string]any{}
	status := "ok"
	for i, worker := range workers {
		if healths[i].err != nil {
			status = "degraded"
			out[worker] = map[string]any{"status": "down", "error": healths[i].err.Error()}
			continue
		}
		out[worker] = healths[i].body
	}
	engine.WriteJSON(w, http.StatusOK, map[string]any{
		"status":       status,
		"build":        engine.BuildInfo(),
		"workers":      out,
		"gather_cache": c.cacheStats(),
		"wal":          c.walStatsBlock(),
	})
}
