// HTTP/JSON transport for the engine: a small API a query optimizer, a
// metrics pipeline or curl can speak. Keys are carried as JSON strings in
// responses (and accepted as strings or numbers in requests) so 64-bit
// integer keys survive transports that parse JSON numbers as float64.
//
// Two handler constructors share the route implementations:
//
//   - NewHandler serves one engine at the root (the single-engine API).
//   - NewRegistryHandler serves a multi-tenant Registry: every tenant at
//     /t/{tenant}/..., admin create/list/delete under /admin/tenants, and
//     the root routes aliased to the "default" tenant so single-engine
//     clients keep working unchanged.
//
// Both expose GET /healthz (liveness plus per-tenant epoch/ingest stats)
// and apply ingest backpressure: request bodies are capped by
// http.MaxBytesReader (413 beyond the cap) and, when the target engine's
// unsealed bytes exceed HandlerOptions.MaxPendingBytes, ingests are shed
// with 429 + Retry-After instead of buffering without bound.
package engine

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"opaq/internal/core"
	"opaq/internal/runio"
)

// ParseKey converts a decimal string into a key; FormatKey is its inverse.
// int64 engines use strconv.ParseInt / FormatInt-style implementations
// (see Int64Key).
type ParseKey[T any] func(string) (T, error)

// Int64Key parses an int64 key, the CLI server's element type.
func Int64Key(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

// Float64Key parses a float64 key.
func Float64Key(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// DefaultMaxBodyBytes caps POST /ingest bodies when
// HandlerOptions.MaxBodyBytes is zero.
const DefaultMaxBodyBytes = 8 << 20

// HandlerOptions tunes the HTTP layer's protection limits.
type HandlerOptions struct {
	// MaxBodyBytes caps one POST /ingest body (http.MaxBytesReader;
	// larger bodies get 413). 0 means DefaultMaxBodyBytes; negative
	// disables the cap.
	MaxBodyBytes int64
	// MaxPendingBytes sheds ingests with 429 while the target engine's
	// unsealed bytes (Engine.PendingBytes) exceed it — backpressure when
	// ingest outruns the seal/merge pipeline. 0 disables shedding. The
	// bound must exceed Stripes·(RunLen−1)·elemSize: rotations seal only
	// completed runs, so partial buffers can pin that many bytes forever,
	// and a smaller bound crossed by partials alone would never drain
	// (every ingest shed, no run ever completing). The engine also needs
	// a seal trigger (EpochPolicy) or explicit Rotate calls for pending
	// state to drain at all.
	MaxPendingBytes int64
	// RetryAfter is the Retry-After hint on 429 responses, rounded up to
	// whole seconds. 0 means adaptive: the hint is derived from the
	// engine's observed seal cadence (Engine.SealInterval) — the backlog
	// plausibly drains one seal from now — clamped to [1s, 60s], falling
	// back to 1s until a cadence has been observed. A positive value
	// disables adaptation and is used verbatim.
	RetryAfter time.Duration
}

// maxAdaptiveRetryAfter caps the seal-cadence-derived Retry-After hint: a
// stalled or rarely sealing engine should make clients probe again within
// a minute, not mirror an hour-long epoch interval.
const maxAdaptiveRetryAfter = time.Minute

// retryAfterHint resolves the 429 hint: an explicit configuration wins,
// then the observed seal cadence (clamped), then a 1s floor. Pure, so the
// adaptation policy is unit-testable without an HTTP round trip.
func retryAfterHint(explicit, sealInterval time.Duration, ok bool) time.Duration {
	if explicit > 0 {
		return explicit
	}
	if ok {
		if sealInterval > maxAdaptiveRetryAfter {
			return maxAdaptiveRetryAfter
		}
		if sealInterval >= time.Second {
			return sealInterval
		}
	}
	return time.Second
}

// handler serves the engine API:
//
//	POST /ingest       {"keys": [1, "2", 3]}            → {"ingested": 3, "n": 1003}
//	GET  /quantile     ?phi=0.5                          → the deterministic enclosure
//	GET  /quantiles    ?q=10                             → q−1 equally spaced enclosures
//	GET  /selectivity  ?a=10&b=20                        → histogram range estimate
//	GET  /stats                                          → engine counters
//	GET  /healthz                                        → liveness + per-tenant stats
//
// With a registry, the same routes exist under /t/{tenant}/ and the admin
// API manages the tenant set.
type handler[T cmp.Ordered] struct {
	reg    *Registry[T] // nil for single-engine handlers
	single *Engine[T]   // nil for registry handlers
	parse  ParseKey[T]
	codec  runio.Codec[T] // nil disables binary ingest (415)
	opts   HandlerOptions
	// bufs pools per-request binary-ingest scratch (*wireBuffers[T]):
	// frame payload, decoded batch and response buffers survive across
	// requests, so the binary path allocates nothing per element.
	bufs sync.Pool
}

// NewHandler returns the single-engine HTTP API. parse converts request
// keys from their decimal string form. Protection limits are the
// HandlerOptions zero-value defaults; use NewHandlerOpts to tune them.
func NewHandler[T cmp.Ordered](e *Engine[T], parse ParseKey[T]) http.Handler {
	return NewHandlerOpts(e, parse, HandlerOptions{})
}

// NewHandlerOpts is NewHandler with explicit protection limits.
func NewHandlerOpts[T cmp.Ordered](e *Engine[T], parse ParseKey[T], opts HandlerOptions) http.Handler {
	return NewHandlerCodec(e, parse, nil, opts)
}

// NewHandlerCodec is NewHandlerOpts plus a codec enabling the binary
// ingest path: POST /ingest with Content-Type application/octet-stream
// carries runio ingest frames (see runio.AppendDataFrame) instead of
// JSON, decoding straight into the engine with zero per-element
// allocations. A nil codec answers binary ingests with 415.
func NewHandlerCodec[T cmp.Ordered](e *Engine[T], parse ParseKey[T], codec runio.Codec[T], opts HandlerOptions) http.Handler {
	h := &handler[T]{single: e, parse: parse, codec: codec, opts: opts}
	mux := http.NewServeMux()
	h.engineRoutes(mux, "")
	mux.HandleFunc("GET /healthz", h.healthz)
	return mux
}

// NewRegistryHandler returns the multi-tenant HTTP API over a registry.
// The root engine routes address the DefaultTenant (creating it is the
// caller's choice; without it they answer 404).
func NewRegistryHandler[T cmp.Ordered](reg *Registry[T], parse ParseKey[T], opts HandlerOptions) http.Handler {
	// The registry's checkpoint codec doubles as the wire codec: both are
	// the element's runio encoding. Registries without one serve JSON only.
	h := &handler[T]{reg: reg, parse: parse, codec: reg.opts.Codec, opts: opts}
	mux := http.NewServeMux()
	h.engineRoutes(mux, "")            // default-tenant alias
	h.engineRoutes(mux, "/t/{tenant}") // tenant-scoped
	mux.HandleFunc("POST /admin/tenants", h.adminCreate)
	mux.HandleFunc("GET /admin/tenants", h.adminList)
	mux.HandleFunc("DELETE /admin/tenants/{tenant}", h.adminDelete)
	mux.HandleFunc("GET /healthz", h.healthz)
	return mux
}

// engineRoutes registers the per-engine routes under prefix.
func (h *handler[T]) engineRoutes(mux *http.ServeMux, prefix string) {
	mux.HandleFunc("POST "+prefix+"/ingest", h.withEngine(h.ingest))
	mux.HandleFunc("GET "+prefix+"/quantile", h.withEngine(h.quantile))
	mux.HandleFunc("GET "+prefix+"/quantiles", h.withEngine(h.quantiles))
	mux.HandleFunc("GET "+prefix+"/selectivity", h.withEngine(h.selectivity))
	mux.HandleFunc("GET "+prefix+"/stats", h.withEngine(h.stats))
	mux.HandleFunc("GET "+prefix+"/summary", h.withEngine(h.summary))
}

// withEngine resolves the request's engine: the single engine, or the
// {tenant} path value (the DefaultTenant when absent) looked up in the
// registry.
func (h *handler[T]) withEngine(f func(*Engine[T], http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		eng := h.single
		if eng == nil {
			name := r.PathValue("tenant")
			if name == "" {
				name = DefaultTenant
			}
			var err error
			if eng, err = h.reg.Get(name); err != nil {
				writeErr(w, err)
				return
			}
		}
		f(eng, w, r)
	}
}

// boundsJSON is one quantile enclosure on the wire.
type boundsJSON struct {
	Phi      float64 `json:"phi"`
	Rank     int64   `json:"rank"`
	Lower    string  `json:"lower"`
	Upper    string  `json:"upper"`
	MaxBelow int64   `json:"max_below"`
	MaxAbove int64   `json:"max_above"`
}

func toBoundsJSON[T cmp.Ordered](b core.Bounds[T]) boundsJSON {
	return boundsJSON{
		Phi:      b.Phi,
		Rank:     b.Rank,
		Lower:    fmt.Sprint(b.Lower),
		Upper:    fmt.Sprint(b.Upper),
		MaxBelow: b.MaxBelow,
		MaxAbove: b.MaxAbove,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps engine errors onto HTTP statuses: malformed input is 400,
// an unknown tenant is 404, creating an existing tenant is 409, querying
// an empty engine is 409 (a state, not a request, problem), anything else
// is 500.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownTenant):
		status = http.StatusNotFound
	case errors.Is(err, ErrTenantExists), errors.Is(err, core.ErrEmpty):
		status = http.StatusConflict
	case errors.Is(err, core.ErrPhi), errors.Is(err, errBadRequest),
		errors.Is(err, ErrTenantName), errors.Is(err, core.ErrConfig),
		errors.Is(err, core.ErrNaN):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

var errBadRequest = errors.New("bad request")

// maxQuantiles caps GET /quantiles: beyond a few thousand equally spaced
// quantiles the summary's sample resolution is exhausted anyway.
const maxQuantiles = 4096

func (h *handler[T]) ingest(eng *Engine[T], w http.ResponseWriter, r *http.Request) {
	if isBinaryIngest(r) {
		h.ingestBinary(eng, w, r)
		return
	}
	// Backpressure: while unsealed bytes exceed the bound, shed instead of
	// buffering. The backlog may consist of completed runs that sit below
	// the engine's own seal triggers, so first rotate — sealing whatever
	// can seal — and shed only if the remainder (unsealable partial runs)
	// still exceeds the bound; otherwise a bound below the trigger
	// threshold would wedge into a permanent 429 with nothing ever
	// draining.
	shed, err := shedNow(eng, h.opts.MaxPendingBytes)
	if err != nil {
		writeErr(w, err)
		return
	}
	if shed {
		h.shed429(eng, w, h.opts.MaxPendingBytes)
		return
	}
	if limit := h.opts.MaxBodyBytes; limit >= 0 {
		if limit == 0 {
			limit = DefaultMaxBodyBytes
		}
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	var body struct {
		Keys []json.RawMessage `json:"keys"`
	}
	// Keys are captured as raw bytes and re-parsed through h.parse, so
	// 64-bit integers never round-trip through float64.
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
				"error": fmt.Sprintf("body exceeds %d bytes; split the batch", tooBig.Limit),
			})
			return
		}
		writeErr(w, fmt.Errorf("%w: decoding body: %v", errBadRequest, err))
		return
	}
	keys := make([]T, 0, len(body.Keys))
	for i, raw := range body.Keys {
		// Accept both 42 and "42": unquote strings, pass numbers through.
		s := string(raw)
		if len(s) > 0 && s[0] == '"' {
			if err := json.Unmarshal(raw, &s); err != nil {
				writeErr(w, fmt.Errorf("%w: key %d: %v", errBadRequest, i, err))
				return
			}
		}
		v, err := h.parse(s)
		if err != nil {
			writeErr(w, fmt.Errorf("%w: key %d: %v", errBadRequest, i, err))
			return
		}
		keys = append(keys, v)
	}
	if err := eng.IngestBatch(keys); err != nil {
		// Engine-side bounded admission (Options.MaxPending) surfaces as
		// the same 429 the HTTP-side shed produces: it is backpressure,
		// not a server fault.
		if errors.Is(err, ErrBacklogged) {
			h.shed429(eng, w, eng.MaxPending())
			return
		}
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{
		"ingested": int64(len(keys)),
		"n":        eng.N(),
	})
}

// shed429 writes the backpressure response with a Retry-After hint
// adapted to the engine's observed seal cadence (see retryAfterHint).
func (h *handler[T]) shed429(eng *Engine[T], w http.ResponseWriter, bound int64) {
	iv, ok := eng.SealInterval()
	retry := retryAfterHint(h.opts.RetryAfter, iv, ok)
	w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":         "ingest backpressure: unsealed bytes over bound",
		"pending_bytes": eng.PendingBytes(),
		"bound":         bound,
	})
}

func (h *handler[T]) quantile(eng *Engine[T], w http.ResponseWriter, r *http.Request) {
	phi, err := strconv.ParseFloat(r.URL.Query().Get("phi"), 64)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: phi: %v", errBadRequest, err))
		return
	}
	b, err := eng.Quantile(phi)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toBoundsJSON(b))
}

func (h *handler[T]) quantiles(eng *Engine[T], w http.ResponseWriter, r *http.Request) {
	q, err := strconv.Atoi(r.URL.Query().Get("q"))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: q: %v", errBadRequest, err))
		return
	}
	// The response is O(q): an uncapped q would let one request allocate
	// gigabytes inside a long-lived server.
	if q > maxQuantiles {
		writeErr(w, fmt.Errorf("%w: q=%d exceeds maximum %d", errBadRequest, q, maxQuantiles))
		return
	}
	bs, err := eng.Quantiles(q)
	if err != nil {
		writeErr(w, err)
		return
	}
	out := make([]boundsJSON, len(bs))
	for i, b := range bs {
		out[i] = toBoundsJSON(b)
	}
	writeJSON(w, http.StatusOK, map[string]any{"quantiles": out})
}

func (h *handler[T]) selectivity(eng *Engine[T], w http.ResponseWriter, r *http.Request) {
	a, err := h.parse(r.URL.Query().Get("a"))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: a: %v", errBadRequest, err))
		return
	}
	b, err := h.parse(r.URL.Query().Get("b"))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: b: %v", errBadRequest, err))
		return
	}
	sel, est, maxErr, err := eng.RangeEstimate(a, b)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"a":             fmt.Sprint(a),
		"b":             fmt.Sprint(b),
		"selectivity":   sel,
		"estimate":      est,
		"max_abs_error": maxErr,
	})
}

// statsJSON flattens engine Stats for the wire.
func statsJSON(st Stats) map[string]any {
	return map[string]any{
		"n":                    st.N,
		"retained_n":           st.RetainedN,
		"version":              st.Version,
		"stripes":              st.Stripes,
		"epochs":               st.Epochs,
		"sealed_epochs":        st.SealedEpochs,
		"evicted_epochs":       st.EvictedEpochs,
		"evicted_n":            st.EvictedN,
		"compactions":          st.Compactions,
		"compacted_epochs":     st.CompactedEpochs,
		"pending_elems":        st.PendingElems,
		"pending_bytes":        st.PendingBytes,
		"merges":               st.Merges,
		"prefix_hits":          st.PrefixHits,
		"prefix_rebuilds":      st.PrefixRebuilds,
		"queries":              st.Queries,
		"snapshot_n":           st.SnapshotN,
		"snapshot_samples":     st.SnapshotSamples,
		"snapshot_error_bound": st.SnapshotErrorBound,
	}
}

func (h *handler[T]) stats(eng *Engine[T], w http.ResponseWriter, r *http.Request) {
	out := statsJSON(eng.Stats())
	out["epoch_ring"] = eng.Epochs()
	writeJSON(w, http.StatusOK, out)
}

// summary is the summary-fetch RPC: the engine's current snapshot in the
// checksummed core.SaveSummary format — the same bytes a checkpoint file
// holds. A coordinator scatter-gathers these per-worker summaries and
// reduces them with core.MergeAll; summaries are tiny (the sample list),
// so the transfer is cheap at any N. Requires a codec (415 without one).
//
// The response carries the snapshot's strong ETag (Engine.SummaryETag)
// and honors If-None-Match: a fetcher holding the current version pays
// one header round trip (304, no serialization, no body) instead of a
// full summary — the coordinator's conditional-GET fast path.
func (h *handler[T]) summary(eng *Engine[T], w http.ResponseWriter, r *http.Request) {
	if h.codec == nil {
		http.Error(w, "no element codec configured for binary summaries", http.StatusUnsupportedMediaType)
		return
	}
	s, err := eng.Snapshot()
	if err != nil {
		writeErr(w, err)
		return
	}
	etag := eng.SummaryETag(s)
	w.Header().Set("ETag", etag)
	if ETagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	var buf bytes.Buffer
	if err := core.SaveSummary(&buf, s.Summary, h.codec); err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// ETagMatch implements the If-None-Match comparison for strong tags:
// "*" matches anything, otherwise any member of the comma-separated
// list must equal the current tag. Weak-prefixed entries (W/"...") are
// compared by their opaque part — byte-identity is exactly what the
// weak comparison promises here, since our tags are version-keyed.
// Exported because the cluster coordinator answers the same protocol.
func ETagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == etag {
			return true
		}
	}
	return false
}

// healthz is the liveness probe: 200 whenever the process serves, with
// per-tenant epoch/ingest stats so orchestration and CI can wait on
// readiness and inspect lifecycle progress in one round trip.
func (h *handler[T]) healthz(w http.ResponseWriter, r *http.Request) {
	tenants := map[string]map[string]any{}
	if h.single != nil {
		tenants[DefaultTenant] = statsJSON(h.single.Stats())
	} else {
		for _, name := range h.reg.Names() {
			eng, err := h.reg.Get(name)
			if err != nil {
				continue // deleted between Names and Get
			}
			tenants[name] = statsJSON(eng.Stats())
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"build":   BuildInfo(),
		"tenants": tenants,
	})
}

// tenantConfigJSON is the admin-create request body. Zero fields inherit
// the registry defaults.
type tenantConfigJSON struct {
	Name            string `json:"name"`
	RunLen          int    `json:"m"`
	SampleSize      int    `json:"s"`
	Stripes         int    `json:"stripes"`
	Buckets         int    `json:"buckets"`
	EpochMaxElems   int64  `json:"epoch_max_elems"`
	EpochMaxBytes   int64  `json:"epoch_max_bytes"`
	EpochIntervalMS int64  `json:"epoch_interval_ms"`
	Retain          string `json:"retain"` // "", "all", "last_k", "max_age"
	RetainK         int    `json:"retain_k"`
	RetainAgeMS     int64  `json:"retain_age_ms"`
}

// options materializes the request against the registry defaults.
func (c tenantConfigJSON) options(defaults Options) (Options, error) {
	o := defaults
	if c.RunLen > 0 {
		o.Config.RunLen = c.RunLen
	}
	if c.SampleSize > 0 {
		o.Config.SampleSize = c.SampleSize
	}
	if c.Stripes > 0 {
		o.Stripes = c.Stripes
	}
	if c.Buckets > 0 {
		o.Buckets = c.Buckets
	}
	if c.EpochMaxElems > 0 {
		o.Epoch.MaxElems = c.EpochMaxElems
	}
	if c.EpochMaxBytes > 0 {
		o.Epoch.MaxBytes = c.EpochMaxBytes
	}
	if c.EpochIntervalMS > 0 {
		o.Epoch.Interval = time.Duration(c.EpochIntervalMS) * time.Millisecond
	}
	switch c.Retain {
	case "":
	case "all":
		o.Retention = Retention{Kind: RetainAll}
	case "last_k":
		o.Retention = Retention{Kind: RetainLastK, K: c.RetainK}
	case "max_age":
		o.Retention = Retention{Kind: RetainMaxAge, MaxAge: time.Duration(c.RetainAgeMS) * time.Millisecond}
	default:
		return o, fmt.Errorf("%w: retain must be all, last_k or max_age, got %q", errBadRequest, c.Retain)
	}
	return o, nil
}

func (h *handler[T]) adminCreate(w http.ResponseWriter, r *http.Request) {
	var req tenantConfigJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("%w: decoding body: %v", errBadRequest, err))
		return
	}
	opts, err := req.options(h.reg.opts.Defaults)
	if err != nil {
		writeErr(w, err)
		return
	}
	eng, err := h.reg.Create(req.Name, &opts)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"tenant": req.Name,
		"stats":  statsJSON(eng.Stats()),
	})
}

func (h *handler[T]) adminList(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name   string         `json:"name"`
		Stats  map[string]any `json:"stats"`
		Epochs []EpochStats   `json:"epochs"`
	}
	out := make([]entry, 0)
	for _, name := range h.reg.Names() {
		eng, err := h.reg.Get(name)
		if err != nil {
			continue
		}
		out = append(out, entry{Name: name, Stats: statsJSON(eng.Stats()), Epochs: eng.Epochs()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": out})
}

func (h *handler[T]) adminDelete(w http.ResponseWriter, r *http.Request) {
	if err := h.reg.Delete(r.PathValue("tenant")); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
