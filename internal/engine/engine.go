// Package engine turns the batch OPAQ library into a long-lived quantile
// service: a concurrent component that ingests a stream, answers
// quantile / rank / selectivity queries while data keeps arriving, and
// checkpoints its state — the serving substrate for query-optimizer
// statistics that must stay fresh (the equi-depth histogram application
// the paper's introduction motivates).
//
// # Architecture
//
// Writes go to P lock-striped ingest shards, each owning one
// core.StreamBuilder behind its own mutex; Ingest and IngestBatch
// round-robin across stripes, so concurrent writers rarely contend on the
// same lock.
//
// An ingest returns once its elements are buffered and counted. The run
// it fills is sampled after it returns, by a goroutine it starts that
// settles the stripe (core.StreamBuilder.Settle); a stripe has at most
// one such goroutine started at a time, and the next ingest to the
// stripe settles a run still waiting itself. The seal an EpochPolicy
// count or bytes trigger makes due is cut, and compacted, by the same
// goroutine. The next ingest, Rotate, Stats, Epochs, PendingElems and
// PendingBytes wait for that seal, and a snapshot rebuild settles the
// stripes and cuts a due seal itself, so every call after an ingest sees
// what it would had the ingest done that work before returning. The
// sample phase thus overlaps whatever the caller does between ingests —
// for a served ingest, the ack's trip back — as the paper's Section 4
// overlaps I/O with computation.
//
// Summaries move through an epoch lifecycle (epoch.go): a rotation —
// triggered by element count, encoded bytes, a wall-clock tick
// (EpochPolicy), or an explicit Rotate — seals every stripe's completed
// runs into one immutable Epoch; sealed epochs live in a ring and a
// Retention policy (keep-all, last-K, sliding window) evicts aged ones, so
// the engine serves windowed as well as lifetime statistics. Because
// seals never split a run, a keep-all engine's merged state is identical
// whether rotation ran or not. A CompactionPolicy (compact.go)
// buddy-merges adjacent sealed epochs so the ring stays O(log N) deep,
// with answers provably unchanged.
//
// Reads are served from an immutable merged Snapshot that is cached per
// ingest version: a query first checks the cached snapshot, and only when
// ingestion (or eviction) has advanced does one merger reassemble the
// merge set (single-flight: a burst of queries behind a stale cache
// performs exactly one merge; the rest block briefly and reuse it).
// Snapshot maintenance itself is two-level. The merged summary of the
// sealed epoch ring — the frozen prefix — is cached against the ring's
// copy-on-write slice identity, so it is invalidated only by the events
// that actually change the ring (rotation, compaction swap, eviction,
// restore, bulk load), never by plain ingest. A version-missed query
// therefore re-merges no sealed epoch: it merges the live stripes'
// summaries and folds them into the cached prefix. That fold (core.Merge)
// copies every retained sample into a list the new snapshot owns, so a
// steady-state rebuild still costs O(retained window). Each stripe's
// summary selects the stripe's partial run where it is buffered, under
// the stripe's lock, with no copy; the selection is repeated on every
// rebuild. The stripes' summaries cover every run completed since the
// last seal, and with no seal trigger set that is every run ever
// ingested: each version-missed read then re-merges all of them.
// Measured on a 2-vCPU VM (m = 65,536, s = 1,024, two stripes, 512 keys
// ingested before each read), that read took 342 ms at 64 Mi retained
// keys, against 5.8 ms when the preload was sealed once. When the prefix
// itself must be rebuilt cold, the k-way merge over the ring fans out
// across Config.Workers (core.MergeAllParallel). Because summaries are
// immutable, queries against a snapshot never block ingestion.
//
// Bulk history enters through BulkLoad (a sharded build over run-file
// datasets) or Restore (a checkpoint written by Checkpoint); each lands as
// its own epoch, exactly the paper's Section 4 incremental story: keep the
// old sorted samples, sample the new runs, merge. A registry of
// independently configured engines (registry.go) serves many columns or
// tenants behind one HTTP mux.
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"opaq/internal/core"
	"opaq/internal/histogram"
	"opaq/internal/parallel"
	"opaq/internal/runio"
)

// DefaultBuckets is the equi-depth bucket count of snapshot histograms
// when Options.Buckets is zero.
const DefaultBuckets = 16

// Options configures an Engine.
type Options struct {
	// Config is the OPAQ sample-phase configuration every stripe builds
	// with. All summaries the engine merges (stripes, bulk loads,
	// restores) must share its Step = RunLen/SampleSize.
	Config core.Config
	// Stripes is P, the number of lock-striped ingest shards. 0 means
	// runtime.GOMAXPROCS(0).
	Stripes int
	// Buckets is the equi-depth histogram resolution of snapshots
	// (selectivity queries). 0 means DefaultBuckets.
	Buckets int
	// Epoch controls automatic sealing of live stripes into epochs. The
	// zero value never seals automatically (Rotate still works).
	Epoch EpochPolicy
	// Retention controls how sealed epochs age out of the merge set. The
	// zero value (RetainAll) keeps everything — lifetime statistics.
	Retention Retention
	// Compaction controls binary-buddy merging of adjacent sealed epochs,
	// which bounds the ring at O(log N) entries without changing any
	// answer. The zero value never compacts automatically (Compact still
	// works).
	Compaction CompactionPolicy
	// MaxPending, when positive, bounds admission: Ingest and IngestBatch
	// return ErrBacklogged while the unsealed bytes (PendingBytes) are at
	// or over it, instead of buffering without bound — backpressure for
	// writers that do not come through the HTTP layer's shedding. A
	// rotation (policy-triggered or explicit) heals the backlog. The
	// bound must exceed Stripes·(RunLen−1)·elemSize: partial run buffers
	// can pin that many bytes that no rotation seals, and a smaller bound
	// could be crossed by partials alone and then never drain. The check
	// happens at call entry, so one admitted batch may overshoot the
	// bound; it is a high-water mark, not a hard ceiling.
	MaxPending int64
	// DisableFrozenPrefix turns off the frozen-prefix merge cache: every
	// snapshot rebuild re-merges the whole merge set (ring + stripes) in
	// one k-way pass, the pre-two-level behavior. Answers are identical
	// either way; this is the measurement baseline for the
	// snapshot-under-ingest benchmarks and the shadow configuration of
	// the prefix-cache equivalence harness.
	DisableFrozenPrefix bool
}

// Snapshot is an immutable, internally consistent view of everything the
// engine was serving when the snapshot was cut: the retained epochs plus
// the live stripes. Both fields are safe for concurrent use and never
// mutated afterwards.
type Snapshot[T cmp.Ordered] struct {
	// Summary is the merged summary over the snapshot's merge set.
	Summary *core.Summary[T]
	// Hist is the equi-depth histogram derived from Summary; nil when the
	// snapshot is empty.
	Hist *histogram.EquiDepth[T]
	// Version is the ingest version the snapshot is known to reflect;
	// concurrent ingests may already have advanced past it.
	Version uint64
}

// Stats is a point-in-time report of engine state and activity.
type Stats struct {
	// N is the number of elements absorbed over the engine's lifetime
	// (ingested + bulk-loaded + restored), including evicted ones.
	N int64
	// RetainedN is the number of elements still in the merge set:
	// N − (elements of evicted epochs).
	RetainedN int64
	// Version counts absorb and eviction operations; the snapshot cache is
	// keyed on it.
	Version uint64
	// Stripes is the configured ingest-stripe count.
	Stripes int
	// Epochs is the retained ring size (compaction shrinks it without
	// touching the seal counters); SealedEpochs and EvictedEpochs count
	// lifetime seals and evicted seals — both in seal units, so their
	// difference is the retained seal count even when eviction drops a
	// compacted entry covering many seals. EvictedN is the total element
	// count of evicted epochs.
	Epochs        int
	SealedEpochs  int64
	EvictedEpochs int64
	EvictedN      int64
	// PendingElems and PendingBytes describe unsealed state (live
	// stripes); PendingBytes is what ingest backpressure bounds.
	PendingElems int64
	PendingBytes int64
	// Compactions counts compaction passes that changed the ring;
	// CompactedEpochs is the total ring depth they reclaimed (entries
	// folded away). Epochs is the resulting ring depth.
	Compactions     int64
	CompactedEpochs int64
	// Merges is the number of snapshot rebuilds performed. PrefixHits
	// counts the rebuilds that reused the cached frozen-prefix summary
	// (tail-only merges — the steady state under sustained ingest);
	// PrefixRebuilds counts frozen-prefix merges (cold, or folding in
	// just-appended epochs), provoked only by ring changes (rotation,
	// compaction swap, eviction, restore, bulk load). Merges −
	// PrefixHits − PrefixRebuilds is the count of
	// full-remerge rebuilds (DisableFrozenPrefix engines only).
	Merges         int64
	PrefixHits     int64
	PrefixRebuilds int64
	// Queries is the number of snapshot-backed queries served, HTTP
	// summary fetches included.
	Queries int64
	// SnapshotN, SnapshotSamples and SnapshotErrorBound describe the
	// cached snapshot (zero when none has been cut yet).
	SnapshotN          int64
	SnapshotSamples    int
	SnapshotErrorBound int64
}

// Engine is a concurrent, long-lived quantile service over elements of
// type T. All methods are safe for concurrent use.
type Engine[T cmp.Ordered] struct {
	cfg           core.Config
	buckets       int
	policy        EpochPolicy
	retain        Retention
	compaction    CompactionPolicy
	maxPending    int64
	elemSize      int64
	disablePrefix bool
	etagBase      string
	stripes       []*stripe[T]

	next    atomic.Uint64 // round-robin ingest cursor
	version atomic.Uint64 // bumped after every absorb or eviction
	count   atomic.Int64  // lifetime elements absorbed
	pending atomic.Int64  // elements not yet sealed into an epoch

	// sealing is held from an ingest that makes a count/bytes seal due
	// until the goroutine it starts has cut that seal and compacted (see
	// settle). The next ingest, Rotate, Stats, Epochs, PendingElems and
	// PendingBytes wait for it, so a seal covers exactly the ingests
	// before it. sealErr, guarded by sealing, holds the error that
	// goroutine met until an ingest or Rotate returns it.
	sealing sync.Mutex
	sealErr error

	epochMu         sync.Mutex                  // guards ring mutation (seal, absorb, evict, compact)
	ring            atomic.Pointer[[]*Epoch[T]] // immutable retained epochs, oldest first
	nextEpoch       atomic.Uint64
	sealedEpochs    atomic.Int64
	evictedEpochs   atomic.Int64
	evictedN        atomic.Int64
	compactions     atomic.Int64
	compactedEpochs atomic.Int64
	sealRate        sealRate

	// oldestDeadline caches ring[0].SealedAt + MaxAge as Unix
	// nanoseconds (noDeadline when empty or retention is not age-based),
	// refreshed at every ring publication, so the cached-snapshot fast
	// path checks window expiry with one atomic load instead of loading
	// the ring and calling time.Since per query.
	oldestDeadline atomic.Int64

	mergeMu sync.Mutex // single-flight guard for snapshot rebuilds
	snap    atomic.Pointer[Snapshot[T]]
	// prefix is the frozen-prefix level of the two-level snapshot cache:
	// the merged summary of the sealed ring, keyed on the ring slice's
	// copy-on-write identity. Written and read only under mergeMu.
	prefix *prefixCache[T]

	merges         atomic.Int64
	queries        atomic.Int64
	prefixHits     atomic.Int64
	prefixRebuilds atomic.Int64

	tickStop  chan struct{}
	closeOnce sync.Once

	// afterIngestUnlock, set only by tests, runs in Ingest and
	// IngestBatch right after the stripe unlock, where a descheduled
	// ingester's elements are already visible to a snapshot.
	afterIngestUnlock func()
	// goSettle, set only by tests, starts the goroutine afterIngest runs
	// settle in, in place of a go statement, so a test can hold the work
	// of each ingest back.
	goSettle func(settle func())
}

type stripe[T cmp.Ordered] struct {
	mu sync.Mutex
	sb *core.StreamBuilder[T]
	// settling says a goroutine that settles the stripe is started and
	// has not yet taken mu, so an ingest that fills a run starts no
	// other: that one settles whatever run waits when it gets the lock.
	// Guarded by mu.
	settling bool
}

// prefixCache pairs a merged frozen-prefix summary with the exact ring
// slice it covers. Every ring mutation publishes a fresh slice
// (copy-on-write), so pointer identity is a sound and allocation-free
// invalidation key: a matching pointer proves the cached merge still
// describes the sealed prefix, whatever concurrent ingest has done to
// the live tail.
type prefixCache[T cmp.Ordered] struct {
	ring *[]*Epoch[T]
	sum  *core.Summary[T]
}

// noDeadline is the oldestDeadline sentinel meaning "nothing can
// expire": retention is not age-based, or the ring is empty.
const noDeadline = int64(1<<63 - 1)

// etagSeq disambiguates engines created in the same nanosecond, so every
// engine instance in a process gets a distinct etag base.
var etagSeq atomic.Uint64

// stripeCount resolves Stripes: 0 means GOMAXPROCS.
func (o Options) stripeCount() int {
	if o.Stripes == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Stripes
}

// CheckPendingBound rejects, with ErrConfig, a bound on unsealed bytes
// (Options.MaxPending, HandlerOptions.MaxPendingBytes) that is at or
// below the bytes o's partial runs can pin. Rotations seal only completed
// runs, so each stripe (Stripes 0 means GOMAXPROCS) can hold up to
// RunLen−1 elements that no rotation drains. A bound at or below that
// floor could be crossed by partials alone and then reject or shed every
// ingest forever. name labels the bound in the error.
func CheckPendingBound[T cmp.Ordered](o Options, name string, bound int64) error {
	stripes := o.stripeCount()
	floor := int64(stripes) * int64(o.Config.RunLen-1) * int64(runio.ElemSize[T]())
	if bound <= floor {
		return fmt.Errorf("%w: %s %d can never drain: %d stripes × (RunLen−1) partial-run elements pin up to %d bytes that no rotation seals",
			core.ErrConfig, name, bound, stripes, floor)
	}
	return nil
}

// New returns an engine with freshly initialized stripes. Engines with an
// EpochPolicy.Interval own a rotation timer and must be Closed.
func New[T cmp.Ordered](opts Options) (*Engine[T], error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Epoch.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Retention.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Compaction.Validate(); err != nil {
		return nil, err
	}
	p := opts.stripeCount()
	if p < 1 {
		return nil, fmt.Errorf("%w: Stripes must be non-negative, got %d", core.ErrConfig, opts.Stripes)
	}
	if opts.MaxPending < 0 {
		return nil, fmt.Errorf("%w: MaxPending must be non-negative, got %d", core.ErrConfig, opts.MaxPending)
	}
	if opts.MaxPending > 0 {
		if err := CheckPendingBound[T](opts, "MaxPending", opts.MaxPending); err != nil {
			return nil, err
		}
		elemSize := int64(runio.ElemSize[T]())
		// A count/bytes seal trigger that fires only ABOVE the admission
		// bound is a livelock: admission rejects before the trigger is
		// reached and, with no wall-clock timer and no explicit Rotate,
		// nothing ever drains. Reject the combination unless an Interval
		// timer provides an unconditional heal. The element comparison is
		// phrased as a division so a huge MaxElems cannot overflow the
		// product and dodge the check.
		if opts.Epoch.Interval == 0 {
			if opts.Epoch.MaxElems > 0 && opts.Epoch.MaxElems > opts.MaxPending/elemSize {
				return nil, fmt.Errorf("%w: MaxPending %d rejects ingests before the MaxElems trigger (%d elements of %d bytes) can fire; raise MaxPending, lower MaxElems, or add an Interval",
					core.ErrConfig, opts.MaxPending, opts.Epoch.MaxElems, elemSize)
			}
			if opts.Epoch.MaxBytes > opts.MaxPending {
				return nil, fmt.Errorf("%w: MaxPending %d rejects ingests before the MaxBytes trigger (%d) can fire; raise MaxPending, lower MaxBytes, or add an Interval",
					core.ErrConfig, opts.MaxPending, opts.Epoch.MaxBytes)
			}
		}
	}
	buckets := opts.Buckets
	if buckets == 0 {
		buckets = DefaultBuckets
	}
	if buckets < 1 {
		return nil, fmt.Errorf("%w: Buckets must be non-negative, got %d", core.ErrConfig, opts.Buckets)
	}
	e := &Engine[T]{
		cfg:           opts.Config,
		buckets:       buckets,
		policy:        opts.Epoch,
		retain:        opts.Retention,
		compaction:    opts.Compaction,
		maxPending:    opts.MaxPending,
		elemSize:      int64(runio.ElemSize[T]()),
		disablePrefix: opts.DisableFrozenPrefix,
		// The etag base is unique per engine instance across process
		// restarts (boot nanoseconds + an in-process sequence), so a
		// version-keyed SummaryETag can never collide with one issued by a
		// previous incarnation of this tenant — a worker rebooted from a
		// checkpoint restarts its version counter, and without a fresh base
		// a conditional fetch could 304 against stale bytes.
		etagBase: strconv.FormatInt(time.Now().UnixNano(), 36) + "." +
			strconv.FormatUint(etagSeq.Add(1), 36),
		stripes: make([]*stripe[T], p),
	}
	for i := range e.stripes {
		sb, err := core.NewStreamBuilder[T](opts.Config)
		if err != nil {
			return nil, err
		}
		e.stripes[i] = &stripe[T]{sb: sb}
	}
	empty := make([]*Epoch[T], 0)
	e.publishRingLocked(&empty)
	if opts.Epoch.Interval > 0 {
		e.tickStop = make(chan struct{})
		go e.rotationTimer(opts.Epoch.Interval)
	}
	return e, nil
}

// rotationTimer seals on a wall-clock tick until Close.
func (e *Engine[T]) rotationTimer(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-e.tickStop:
			return
		case <-t.C:
			// A failed rotation (impossible with matching configs) leaves
			// data live; the next trigger retries.
			e.Rotate()
		}
	}
}

// ErrBacklogged reports an ingest rejected by bounded admission: the
// engine's unsealed bytes are at or over Options.MaxPending. The caller
// should back off — SealInterval is a reasonable hint — and retry once a
// rotation has sealed the backlog.
var ErrBacklogged = errors.New("engine: ingest backlogged: unsealed bytes over MaxPending")

// admit applies bounded admission at call entry (see Options.MaxPending).
// Before rejecting, it retries the EpochPolicy triggers: the seal the
// crossing ingest made due may have lost maybeRotate's TryLock to a
// concurrent ring reader, and rejected ingests never start a seal on
// their own — without this retry one missed TryLock could wedge a
// policy-driven engine in ErrBacklogged forever. Engines without a
// count/bytes trigger are untouched (overThreshold is false): they
// reject immediately and heal via explicit Rotate or the Interval timer.
func (e *Engine[T]) admit() error {
	if e.maxPending <= 0 {
		return nil
	}
	if e.pending.Load()*e.elemSize >= e.maxPending {
		if err := e.maybeRotate(); err != nil {
			return err
		}
	}
	if pending := e.pending.Load() * e.elemSize; pending >= e.maxPending {
		return fmt.Errorf("%w: %d bytes pending, bound %d", ErrBacklogged, pending, e.maxPending)
	}
	return nil
}

// Ingest observes one element. The ingest version is bumped only after the
// element is resident in its stripe, so a Snapshot taken after Ingest
// returns is guaranteed to include it (read-your-writes). With
// Options.MaxPending set, a backlogged engine rejects the element with
// ErrBacklogged instead of buffering it. As IngestBatch, it returns once
// the element is buffered, and the run it fills and the seal it makes due
// are settled after it returns.
func (e *Engine[T]) Ingest(v T) error {
	if err := e.waitSealErr(); err != nil {
		return err
	}
	if err := e.admit(); err != nil {
		return err
	}
	st := e.stripes[e.next.Add(1)%uint64(len(e.stripes))]
	st.mu.Lock()
	err := st.sb.Add(v)
	settle := false
	if err == nil {
		// Counted inside the stripe's critical section: a snapshot or seal
		// that sees the element also sees it in N and PendingElems.
		e.count.Add(1)
		e.pending.Add(1)
		settle = st.claimSettle(e.cfg.RunLen)
	}
	st.mu.Unlock()
	if e.afterIngestUnlock != nil {
		e.afterIngestUnlock()
	}
	if err != nil {
		return err
	}
	e.version.Add(1)
	e.afterIngest(st, settle)
	return nil
}

// IngestBatch observes a batch of elements. The whole batch lands on one
// stripe (keeping its run composition contiguous) and bumps the ingest
// version once, so a batch triggers at most one snapshot rebuild. A batch
// holding a NaN is rejected whole with core.ErrNaN.
//
// It returns once the batch is buffered and counted: a snapshot taken
// after it covers the batch. The stripe samples every run the batch
// fills but the last before the call returns. The last, and the seal an
// EpochPolicy count or bytes trigger makes due, are left to a goroutine
// the call starts, which settles the stripe (core.StreamBuilder.Settle)
// and then cuts the seal and compacts. The next Ingest or IngestBatch,
// Rotate, Stats, Epochs, PendingElems and PendingBytes wait for that
// seal, and a snapshot settles and seals what is due itself, so every
// call after this one sees the state it would had the work been done
// before the return. An error the seal meets is returned by the next
// Ingest, IngestBatch or Rotate.
func (e *Engine[T]) IngestBatch(vs []T) error {
	if len(vs) == 0 {
		return nil
	}
	if err := e.waitSealErr(); err != nil {
		return err
	}
	if err := e.admit(); err != nil {
		return err
	}
	st := e.stripes[e.next.Add(1)%uint64(len(e.stripes))]
	st.mu.Lock()
	err := st.sb.AddBatch(vs)
	settle := false
	if err == nil {
		// As in Ingest: counted before the batch becomes visible to a
		// snapshot or seal.
		e.count.Add(int64(len(vs)))
		e.pending.Add(int64(len(vs)))
		settle = st.claimSettle(e.cfg.RunLen)
	}
	st.mu.Unlock()
	if e.afterIngestUnlock != nil {
		e.afterIngestUnlock()
	}
	if err != nil {
		return err
	}
	e.version.Add(1)
	e.afterIngest(st, settle)
	return nil
}

// claimSettle reports whether the stripe's builder holds a whole run of
// runLen keys that waits to be settled while no settling goroutine is
// started yet, and if so marks one started. Caller holds st.mu.
func (st *stripe[T]) claimSettle(runLen int) bool {
	if st.settling || st.sb.Buffered() < runLen {
		return false
	}
	st.settling = true
	return true
}

// afterIngest starts the work an ingest leaves for after its return: the
// settle of st when settle is set (see claimSettle), and the seal an
// EpochPolicy count or bytes trigger makes due, unless one is in flight
// already.
func (e *Engine[T]) afterIngest(st *stripe[T], settle bool) {
	seal := e.overThreshold() && e.sealing.TryLock()
	if !settle {
		st = nil
	}
	if st == nil && !seal {
		return
	}
	if e.goSettle != nil {
		e.goSettle(func() { e.settle(st, seal) })
		return
	}
	go e.settle(st, seal)
}

// settle is the goroutine afterIngest starts. It samples the run that
// waits in st, when st is not nil. When seal is set it holds sealing,
// which afterIngest took for it: it cuts the due seal and compacts, then
// records what error that met and releases sealing. A failed sampling
// leaves the run buffered, and the next call that settles the stripe
// reports it.
func (e *Engine[T]) settle(st *stripe[T], seal bool) {
	var err error
	if st != nil {
		st.mu.Lock()
		st.settling = false
		err = st.sb.Settle()
		st.mu.Unlock()
	}
	if !seal {
		return
	}
	if err == nil {
		err = e.maybeRotate()
	}
	e.sealErr = err
	e.sealing.Unlock()
}

// waitSealErr waits for a seal an ingest left in flight and returns the
// error it met, once.
func (e *Engine[T]) waitSealErr() error {
	e.sealing.Lock()
	err := e.sealErr
	e.sealErr = nil
	e.sealing.Unlock()
	return err
}

// waitSeal waits for a seal an ingest left in flight, for a reader that
// must see its ring and counters.
func (e *Engine[T]) waitSeal() {
	e.sealing.Lock()
	e.sealing.Unlock()
}

// N returns the total number of elements absorbed over the engine's
// lifetime, including elements of evicted epochs. RetainedN in Stats
// counts only the merge set queries serve from.
func (e *Engine[T]) N() int64 { return e.count.Load() }

// Snapshot returns a consistent merged view of the current merge set
// (retained epochs + live stripes). When the ingest version matches the
// cached snapshot it is returned without any locking; otherwise one caller
// rebuilds while concurrent callers wait and reuse the result
// (single-flight).
func (e *Engine[T]) Snapshot() (*Snapshot[T], error) {
	cur := e.version.Load()
	if s := e.snap.Load(); s != nil && s.Version == cur && !e.oldestExpired() {
		return s, nil
	}
	e.mergeMu.Lock()
	defer e.mergeMu.Unlock()
	// Re-check under the merge lock: a burst of queries behind one stale
	// cache line up here, and all but the first see the fresh snapshot.
	cur = e.version.Load()
	if s := e.snap.Load(); s != nil && s.Version == cur && !e.oldestExpired() {
		return s, nil
	}
	// Compaction on the rebuild path covers engines whose ring changes
	// without rotations (absorb-heavy or query-only load): a quiet engine
	// still converges to the compacted shape, and this rebuild's k-way
	// merge fans in over the compacted ring. Answers are unchanged, so no
	// version bump; the pass is a cheap no-op whenever the ring is
	// already at its buddy fixpoint.
	if _, err := e.compactPass(false); err != nil {
		return nil, err
	}
	return e.rebuildLocked(cur)
}

// oldestExpired reports whether a sliding wall-clock window has an epoch
// due for eviction — the one case where a version-matched cached snapshot
// is still stale, because time alone advanced the retention boundary. The
// deadline is cached at every ring publication (publishRingLocked), so
// this hot-path check is one atomic load and a comparison — no ring
// load, no time.Since — and engines without age-based retention pay a
// single always-false compare against noDeadline.
func (e *Engine[T]) oldestExpired() bool {
	dl := e.oldestDeadline.Load()
	return dl != noDeadline && time.Now().UnixNano() > dl
}

// publishRingLocked stores a new retained ring and refreshes the cached
// oldest-epoch deadline oldestExpired reads. Every ring mutation must
// publish through it (holding epochMu; construction is exempt), both to
// keep the deadline honest and because the fresh slice pointer is what
// invalidates the frozen-prefix cache.
func (e *Engine[T]) publishRingLocked(ring *[]*Epoch[T]) {
	e.ring.Store(ring)
	dl := noDeadline
	if e.retain.Kind == RetainMaxAge && len(*ring) > 0 {
		dl = (*ring)[0].SealedAt.Add(e.retain.MaxAge).UnixNano()
	}
	e.oldestDeadline.Store(dl)
}

// rebuildLocked cuts a fresh snapshot by reassembling the merge set. The
// version was read before the merge set, so the snapshot may reflect newer
// state than it is labeled with — a later query then merely rebuilds
// again; it never serves data older than its label promises. epochMu is
// held while the ring and stripes are read so a concurrent rotation cannot
// move elements between them mid-read (which would double-count or drop a
// stripe).
//
// The reassembly is two-level: the sealed ring's merge — the frozen
// prefix — is served from a cache keyed on the ring slice's identity, so
// in the steady state (ingest advancing the version with no rotation in
// between) no sealed epoch is re-merged: the stripes' summaries are
// merged and folded into the cached prefix. The fold copies the whole
// prefix, and the stripes' summaries hold every run completed since the
// last seal, so the rebuild still grows with the retained window (see
// the package doc). A ring change (rotation, compaction swap, eviction,
// restore, bulk load) publishes a new slice and misses the cache; see
// frozenPrefix for how the prefix is then rebuilt.
func (e *Engine[T]) rebuildLocked(version uint64) (*Snapshot[T], error) {
	e.epochMu.Lock()
	// A count/bytes seal an ingest made due and has not cut yet — its
	// goroutine is still on its way, or lost maybeRotate's TryLock to a
	// rebuild — is cut here, so a read sees the ring it would have seen
	// had the ingest sealed before returning, and a steady stream of reads
	// cannot postpone the policy's seal indefinitely. Reading the version
	// again before the stripes keeps the label a lower bound on what the
	// snapshot holds.
	sealed := false
	if e.overThreshold() {
		var err error
		if sealed, err = e.rotateLocked(time.Now()); err != nil {
			e.epochMu.Unlock()
			return nil, err
		}
		version = e.version.Load()
	}
	// A sliding window must age out even when nothing rotates or ingests:
	// a quiet engine's queries drop expired epochs here.
	if e.retain.Kind == RetainMaxAge && e.applyRetentionLocked(time.Now()) {
		e.version.Add(1)
		version = e.version.Load()
	}
	ringPtr := e.ring.Load()
	ring := *ringPtr
	tails := make([]*core.Summary[T], 0, len(e.stripes))
	for _, st := range e.stripes {
		st.mu.Lock()
		sum, err := st.sb.Summary()
		st.mu.Unlock()
		if err != nil {
			e.epochMu.Unlock()
			return nil, err
		}
		tails = append(tails, sum)
	}
	e.epochMu.Unlock()

	// The merge set is immutable from here on; the merges run without any
	// engine lock but mergeMu.
	acc, err := e.assemble(ringPtr, ring, tails)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot[T]{Summary: acc, Version: version}
	if acc.N() > 0 {
		h, err := histogram.Build(acc, e.buckets)
		if err != nil {
			return nil, err
		}
		snap.Hist = h
	}
	e.snap.Store(snap)
	e.merges.Add(1)
	if sealed {
		// The compaction every seal path runs after its seal, so the ring
		// does not depend on whether this rebuild or the ingest's own
		// goroutine cut the seal. Answers are unchanged, so snap stays
		// current.
		if _, err := e.compactPass(false); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// assemble merges one consistent merge set (ring + freshly cut stripe
// tails) into a snapshot summary. With the frozen-prefix cache enabled
// (the default) it is the two-level path: prefix lookup or cold rebuild,
// then a tail merge folded in with one pairwise pass. The merge tree's
// shape never changes the result — the sample multiset, counts and
// extrema are order-independent — so the summary (and any checkpoint cut
// from it) is byte-identical to the single k-way full remerge the
// DisableFrozenPrefix path performs. Caller holds mergeMu.
func (e *Engine[T]) assemble(ringPtr *[]*Epoch[T], ring []*Epoch[T], tails []*core.Summary[T]) (*core.Summary[T], error) {
	if e.disablePrefix {
		sums := make([]*core.Summary[T], 0, len(ring)+len(tails))
		for _, ep := range ring {
			sums = append(sums, ep.Summary)
		}
		sums = append(sums, tails...)
		return core.MergeAll(sums)
	}
	prefix, err := e.frozenPrefix(ringPtr, ring)
	if err != nil {
		return nil, err
	}
	tail, err := core.MergeAll(tails)
	if err != nil {
		return nil, err
	}
	return core.Merge(prefix, tail)
}

// frozenPrefix returns the merged summary of the sealed ring, from the
// cache when the ring is the one the cache was built against, by folding
// the appended epochs into the cached merge when the ring only grew at
// its end (a seal or absorb), otherwise by one cold merge fanned out
// across Config.Workers. Caller holds mergeMu (the cache field is
// single-flight state, like the snapshot it feeds).
func (e *Engine[T]) frozenPrefix(ringPtr *[]*Epoch[T], ring []*Epoch[T]) (*core.Summary[T], error) {
	c := e.prefix
	if c != nil && c.ring == ringPtr {
		e.prefixHits.Add(1)
		return c.sum, nil
	}
	var (
		sum *core.Summary[T]
		err error
	)
	if len(ring) == 0 {
		// NewSummary with N == 0 is the canonical empty summary: folding
		// it in is a no-op, and nothing merges until an epoch seals.
		sum, err = core.NewSummary(core.SummaryParts[T]{Step: int64(e.cfg.Step())})
	} else if c != nil && len(*c.ring) <= len(ring) && slices.Equal(ring[:len(*c.ring)], *c.ring) {
		// Under sustained ingest every seal would otherwise re-merge the
		// whole ring, making each rebuild O(ring) in k-way merge work.
		sums := []*core.Summary[T]{c.sum}
		for _, ep := range ring[len(*c.ring):] {
			sums = append(sums, ep.Summary)
		}
		sum, err = core.MergeAll(sums)
	} else {
		sums := make([]*core.Summary[T], len(ring))
		for i, ep := range ring {
			sums[i] = ep.Summary
		}
		sum, err = core.MergeAllParallel(sums, e.cfg.EffectiveWorkers())
	}
	if err != nil {
		return nil, err
	}
	e.prefix = &prefixCache[T]{ring: ringPtr, sum: sum}
	e.prefixRebuilds.Add(1)
	return sum, nil
}

// Quantile returns the deterministic enclosure of the φ-quantile over the
// retained window, from the current snapshot.
func (e *Engine[T]) Quantile(phi float64) (core.Bounds[T], error) {
	s, err := e.Snapshot()
	if err != nil {
		var zero core.Bounds[T]
		return zero, err
	}
	e.queries.Add(1)
	return s.Summary.Bounds(phi)
}

// Quantiles returns enclosures of the q−1 equally spaced quantiles.
func (e *Engine[T]) Quantiles(q int) ([]core.Bounds[T], error) {
	s, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	e.queries.Add(1)
	return s.Summary.Quantiles(q)
}

// RankBounds returns deterministic bounds on the number of retained
// elements ≤ x.
func (e *Engine[T]) RankBounds(x T) (lo, hi int64, err error) {
	s, err := e.Snapshot()
	if err != nil {
		return 0, 0, err
	}
	e.queries.Add(1)
	lo, hi = s.Summary.RankBounds(x)
	return lo, hi, nil
}

// RangeEstimate answers a range predicate from one snapshot: the
// selectivity (fraction of retained elements in [a, b]), the raw element
// estimate it is derived from, and the histogram's deterministic absolute
// error ceiling — mutually consistent even while ingestion advances.
// Empty engines report core.ErrEmpty.
func (e *Engine[T]) RangeEstimate(a, b T) (sel, estimate, maxErr float64, err error) {
	s, err := e.Snapshot()
	if err != nil {
		return 0, 0, 0, err
	}
	if s.Hist == nil {
		return 0, 0, 0, core.ErrEmpty
	}
	e.queries.Add(1)
	estimate = s.Hist.EstimateRange(a, b)
	return estimate / float64(s.Hist.N()), estimate, s.Hist.MaxRangeError(), nil
}

// Selectivity estimates the fraction of retained elements in [a, b] from
// the snapshot's equi-depth histogram. Empty engines report core.ErrEmpty.
func (e *Engine[T]) Selectivity(a, b T) (float64, error) {
	sel, _, _, err := e.RangeEstimate(a, b)
	return sel, err
}

// EstimateRange estimates the number of retained elements in [a, b], with
// the histogram's deterministic error ceiling as the second result.
func (e *Engine[T]) EstimateRange(a, b T) (estimate, maxErr float64, err error) {
	_, estimate, maxErr, err = e.RangeEstimate(a, b)
	return estimate, maxErr, err
}

// Stats reports engine state without forcing a snapshot rebuild (the
// snapshot columns describe the cached snapshot, which may trail N).
func (e *Engine[T]) Stats() Stats {
	e.waitSeal()
	// Report the ring a query issued now would serve: under RetainMaxAge,
	// epochs past their age are excluded (and their elements subtracted
	// from RetainedN) even if no rotation or rebuild has physically
	// evicted them yet — otherwise an idle engine's healthz would show
	// retained data that any query would immediately age out. The ring
	// and eviction counters are read under epochMu so a concurrent
	// eviction of an expired epoch cannot be subtracted twice.
	e.epochMu.Lock()
	full := *e.ring.Load()
	cut := e.expiredCut(full, time.Now())
	live := full[cut:]
	var expiredN int64
	for _, ep := range full[:cut] {
		expiredN += ep.Summary.N()
	}
	evictedEpochs := e.evictedEpochs.Load()
	evictedN := e.evictedN.Load()
	e.epochMu.Unlock()
	st := Stats{
		N:               e.count.Load(),
		Version:         e.version.Load(),
		Stripes:         len(e.stripes),
		Epochs:          len(live),
		SealedEpochs:    e.sealedEpochs.Load(),
		EvictedEpochs:   evictedEpochs,
		EvictedN:        evictedN,
		Compactions:     e.compactions.Load(),
		CompactedEpochs: e.compactedEpochs.Load(),
		PendingElems:    e.pending.Load(),
		PendingBytes:    e.pending.Load() * e.elemSize,
		Merges:          e.merges.Load(),
		PrefixHits:      e.prefixHits.Load(),
		PrefixRebuilds:  e.prefixRebuilds.Load(),
		Queries:         e.queries.Load(),
	}
	st.RetainedN = st.N - st.EvictedN - expiredN
	if s := e.snap.Load(); s != nil {
		st.SnapshotN = s.Summary.N()
		st.SnapshotSamples = s.Summary.SampleCount()
		st.SnapshotErrorBound = s.Summary.ErrorBound()
	}
	return st
}

// BulkLoad seeds the engine from per-shard datasets (typically run-file
// sections from runio.ShardFile) via the sharded build: every shard runs
// the full local sample phase concurrently, and the merged result lands as
// one epoch alongside live ingestion.
func (e *Engine[T]) BulkLoad(datasets []runio.Dataset[T]) error {
	sum, err := parallel.BuildSharded(datasets, e.cfg)
	if err != nil {
		return err
	}
	return e.absorb(sum, EpochBulk)
}

// absorb lands an externally built summary in the ring as its own epoch.
// It is deliberately NOT merged into live stripes or an existing epoch:
// retention treats restored history like any other epoch, and a
// checkpoint cut concurrently always sees either all of it or none.
func (e *Engine[T]) absorb(sum *core.Summary[T], src EpochSource) error {
	if sum.N() == 0 {
		return nil
	}
	if sum.Step() != int64(e.cfg.Step()) {
		return fmt.Errorf("%w: summary step %d, engine step %d (same RunLen/SampleSize ratio required)",
			core.ErrIncompatible, sum.Step(), e.cfg.Step())
	}
	e.epochMu.Lock()
	e.appendEpochLocked(&Epoch[T]{Summary: sum, SealedAt: time.Now(), Source: src})
	e.applyRetentionLocked(time.Now())
	e.epochMu.Unlock()
	e.count.Add(sum.N())
	e.version.Add(1)
	// Post-absorb compaction, outside epochMu (see compactPass); the
	// epoch is already published, so a failure must not unwind it.
	_, cerr := e.compactPass(false)
	return cerr
}

// SummaryETag returns the strong HTTP entity tag identifying snapshot s
// of this engine: the instance's boot-unique base plus the snapshot's
// ingest version. Strong means equal tags imply byte-identical
// Checkpoint/SaveSummary output — the version counter only ever
// advances, a given (instance, version) pair labels one merge set, and
// summary serialization is deterministic. The converse does not hold
// (a version bump with no data change produces a fresh tag), which
// costs a conditional fetch a full body, never correctness.
func (e *Engine[T]) SummaryETag(s *Snapshot[T]) string {
	return `"` + e.etagBase + "." + strconv.FormatUint(s.Version, 36) + `"`
}

// Checkpoint writes the engine's current merged summary (the retained
// window) to w in the checksummed SaveSummary format. The checkpoint
// captures a consistent snapshot — concurrent rotations cannot tear it —
// and a Restore of it into a fresh engine yields a byte-identical next
// checkpoint.
func (e *Engine[T]) Checkpoint(w io.Writer, codec runio.Codec[T]) error {
	s, err := e.Snapshot()
	if err != nil {
		return err
	}
	return core.SaveSummary(w, s.Summary, codec)
}

// CheckpointFile checkpoints atomically: the summary is written to a
// temporary file in the target directory, synced, and renamed over path,
// so a crash mid-write never leaves a torn checkpoint behind.
func (e *Engine[T]) CheckpointFile(path string, codec runio.Codec[T]) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".opaq-checkpoint-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := e.Checkpoint(f, codec); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Restore absorbs a checkpoint written by Checkpoint (with the same codec
// and RunLen/SampleSize ratio) as its own epoch. Restoring into a
// non-empty engine is safe — live and previously restored state is
// untouched — so shards of history can be restored one by one.
func (e *Engine[T]) Restore(r io.Reader, codec runio.Codec[T]) error {
	sum, err := core.LoadSummary[T](r, codec)
	if err != nil {
		return err
	}
	return e.absorb(sum, EpochRestore)
}

// RestoreFile restores from a checkpoint file.
func (e *Engine[T]) RestoreFile(path string, codec runio.Codec[T]) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return e.Restore(f, codec)
}
