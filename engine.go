package opaq

import (
	"cmp"
	"net/http"

	"opaq/internal/engine"
)

// Engine is a concurrent, long-lived quantile service: P lock-striped
// ingest shards absorb a stream while queries are served from an
// epoch-cached merged snapshot (one single-flight merge per ingest
// advance, however many queries arrive). Summaries move through an
// epoch-based lifecycle — completed runs seal into immutable epochs
// (EngineEpochPolicy) and a retention policy (EngineRetention) evicts aged
// epochs — so the engine serves windowed as well as lifetime statistics.
// It checkpoints and restores its state through the SaveSummary format and
// can be seeded from run files via a sharded bulk load. See
// internal/engine for the architecture.
type Engine[T cmp.Ordered] = engine.Engine[T]

// EngineOptions configures NewEngine; see engine.Options.
type EngineOptions = engine.Options

// EngineEpochPolicy controls when an engine seals its live stripes into an
// epoch (by element count, encoded bytes or wall-clock tick); see
// engine.EpochPolicy. Engines with a tick interval must be Closed.
type EngineEpochPolicy = engine.EpochPolicy

// EngineRetention controls how sealed epochs age out of the merge set;
// see engine.Retention.
type EngineRetention = engine.Retention

// EngineCompactionPolicy controls binary-buddy compaction of the sealed
// epoch ring: adjacent same-tier epochs merge after rotations and on
// snapshot rebuilds, holding the ring at O(log N) entries with every
// answer — and the checkpoint bytes — provably unchanged; see
// engine.CompactionPolicy.
type EngineCompactionPolicy = engine.CompactionPolicy

// ErrEngineBacklogged reports an ingest rejected by engine-side bounded
// admission (EngineOptions.MaxPending); back off — Engine.SealInterval
// hints how long — and retry after a rotation seals the backlog.
var ErrEngineBacklogged = engine.ErrBacklogged

// RetentionKind selects an eviction policy; see engine.RetentionKind.
type RetentionKind = engine.RetentionKind

// Retention policies: keep every epoch (lifetime statistics), the newest
// K epochs, or a trailing wall-clock window.
const (
	RetainAll    = engine.RetainAll
	RetainLastK  = engine.RetainLastK
	RetainMaxAge = engine.RetainMaxAge
)

// EngineEpochStats describes one retained epoch; see engine.EpochStats.
type EngineEpochStats = engine.EpochStats

// EngineStats is a point-in-time engine activity report; see engine.Stats.
type EngineStats = engine.Stats

// EngineSnapshot is an immutable consistent view of an engine: the merged
// summary of everything it serves; see engine.Snapshot.
type EngineSnapshot[T cmp.Ordered] = engine.Snapshot[T]

// NewEngine returns a live quantile service over elements of type T.
func NewEngine[T cmp.Ordered](opts EngineOptions) (*Engine[T], error) {
	return engine.New[T](opts)
}

// EngineRegistry maps tenant names (columns, tables, metrics) to
// independently configured engines behind one server, with per-tenant
// checkpoint files and restore-on-boot; see engine.Registry.
type EngineRegistry[T cmp.Ordered] = engine.Registry[T]

// EngineRegistryOptions configures NewEngineRegistry; see
// engine.RegistryOptions.
type EngineRegistryOptions[T cmp.Ordered] = engine.RegistryOptions[T]

// DefaultTenant is the tenant the registry handler's root routes address.
const DefaultTenant = engine.DefaultTenant

// NewEngineRegistry returns a multi-tenant engine registry, restoring any
// per-tenant checkpoints found in its checkpoint directory.
func NewEngineRegistry[T cmp.Ordered](opts EngineRegistryOptions[T]) (*EngineRegistry[T], error) {
	return engine.NewRegistry[T](opts)
}

// EngineHandlerOptions tunes the HTTP layer's protection limits (ingest
// body cap, pending-bytes backpressure); see engine.HandlerOptions.
type EngineHandlerOptions = engine.HandlerOptions

// NewEngineHandler exposes an engine over the HTTP/JSON API that
// `opaq serve` speaks (POST /ingest, GET /quantile, GET /quantiles,
// GET /selectivity, GET /stats, GET /healthz). parse converts request keys
// from their decimal string form; ParseInt64Key and ParseFloat64Key cover
// the common element types.
func NewEngineHandler[T cmp.Ordered](e *Engine[T], parse func(string) (T, error)) http.Handler {
	return engine.NewHandler(e, parse)
}

// NewEngineRegistryHandler exposes a registry over the multi-tenant
// HTTP/JSON API: every tenant under /t/{tenant}/..., tenant admin under
// /admin/tenants, GET /healthz, and the root routes aliased to the
// "default" tenant so single-engine clients keep working.
func NewEngineRegistryHandler[T cmp.Ordered](r *EngineRegistry[T], parse func(string) (T, error), opts EngineHandlerOptions) http.Handler {
	return engine.NewRegistryHandler(r, parse, opts)
}

// NewEngineHandlerCodec is NewEngineHandler with explicit protection
// limits and a codec enabling the binary ingest path: POST /ingest with
// Content-Type application/octet-stream carries length-prefixed,
// CRC-checked element frames (the checkpoint encoding on the wire)
// instead of JSON. Registry handlers enable it automatically from their
// checkpoint codec.
func NewEngineHandlerCodec[T cmp.Ordered](e *Engine[T], parse func(string) (T, error), codec Codec[T], opts EngineHandlerOptions) http.Handler {
	return engine.NewHandlerCodec(e, parse, codec, opts)
}

// ParseInt64Key parses a decimal int64 HTTP request key.
func ParseInt64Key(s string) (int64, error) { return engine.Int64Key(s) }

// ParseFloat64Key parses a decimal float64 HTTP request key.
func ParseFloat64Key(s string) (float64, error) { return engine.Float64Key(s) }
