// Epoch lifecycle: the engine's summaries live in a ring of immutable
// sealed epochs plus the live (unsealed) stripe builders. A rotation seals
// every stripe's completed runs into one epoch; a retention policy evicts
// aged epochs from the ring so queries can serve windowed as well as
// lifetime statistics. Because seals happen only at run boundaries
// (core.StreamBuilder.Seal), a keep-all engine's merged snapshot — and
// therefore its checkpoint bytes — is identical whether or not rotation
// ever ran.
package engine

import (
	"cmp"
	"fmt"
	"time"

	"opaq/internal/core"
)

// EpochSource records how an epoch entered the ring.
type EpochSource string

const (
	// EpochIngest is an epoch sealed out of the live ingest stripes.
	EpochIngest EpochSource = "ingest"
	// EpochRestore is a checkpoint absorbed by Restore.
	EpochRestore EpochSource = "restore"
	// EpochBulk is a sharded build absorbed by BulkLoad.
	EpochBulk EpochSource = "bulk"
	// EpochCompacted is the binary-buddy merge of a span of adjacent
	// sealed epochs (see compact.go); FirstID..ID records which.
	EpochCompacted EpochSource = "compact"
)

// Epoch is one immutable sealed summary in the engine's ring. A freshly
// sealed epoch covers exactly one seal (FirstID == ID, Seals == 1);
// compaction folds adjacent epochs into one entry whose metadata spans
// everything it absorbed.
type Epoch[T cmp.Ordered] struct {
	// ID increases monotonically over the engine's lifetime; gaps appear
	// when epochs are evicted. For a compacted epoch it is the NEWEST
	// covered seal's ID; FirstID..ID is the covered span.
	ID uint64
	// FirstID is the oldest covered seal's ID; equal to ID until
	// compaction widens the span.
	FirstID uint64
	// Seals counts the seals folded into this entry (ID−FirstID+1 minus
	// any IDs already evicted before compaction).
	Seals int64
	// Summary covers exactly the elements sealed into the epoch's span.
	Summary *core.Summary[T]
	// Bytes is the encoded size of the covered elements (N·elemSize) —
	// what the entry contributes to a rebuilt merge set.
	Bytes int64
	// SealedAt is when the NEWEST covered seal happened; age-based
	// retention compares against it, so a compacted entry is evicted only
	// once its newest data ages out (never early).
	SealedAt time.Time
	// FirstSealedAt is when the OLDEST covered seal happened; equal to
	// SealedAt until compaction widens the span.
	FirstSealedAt time.Time
	// Source records how the epoch entered the ring.
	Source EpochSource
}

// EpochPolicy controls when the live stripes are sealed into a new epoch.
// The zero value never seals automatically; Rotate can still be called
// explicitly. Whatever the trigger, a seal detaches only completed runs —
// each stripe's in-progress partial run stays live and flows into the next
// epoch — so the effective epoch granularity is at least one RunLen per
// active stripe.
type EpochPolicy struct {
	// MaxElems seals when the number of unsealed elements reaches this
	// bound (0 = no count trigger). Values below Stripes·RunLen cause
	// rotation attempts that find no completed run; harmless but wasted.
	// The ingest that reaches the bound makes the seal due and returns;
	// a goroutine it starts cuts the seal and compacts, and the next
	// ingest, Rotate, Stats, Epochs, PendingElems and PendingBytes wait
	// for it (see Engine.IngestBatch).
	MaxElems int64
	// MaxBytes seals when the unsealed elements' encoded size reaches this
	// bound (0 = no bytes trigger). The seal is cut after the ingest that
	// reaches the bound returns, as for MaxElems.
	MaxBytes int64
	// Interval seals on a wall-clock tick (0 = no timer). An engine with a
	// timer must be Closed to stop it.
	Interval time.Duration
}

// Validate checks the policy invariants.
func (p EpochPolicy) Validate() error {
	if p.MaxElems < 0 || p.MaxBytes < 0 || p.Interval < 0 {
		return fmt.Errorf("%w: EpochPolicy fields must be non-negative: %+v", core.ErrConfig, p)
	}
	return nil
}

// RetentionKind selects how sealed epochs age out of the merge set.
type RetentionKind int

const (
	// RetainAll keeps every epoch: lifetime statistics (the pre-epoch
	// engine behavior).
	RetainAll RetentionKind = iota
	// RetainLastK keeps the newest K seals. On an uncompacted ring that
	// is the newest K epochs; on a compacted ring, the shortest entry
	// suffix covering at least K seals (entries carry their covered seal
	// count, so compaction coarsens eviction granularity without
	// shrinking the promised window).
	RetainLastK
	// RetainMaxAge keeps epochs sealed within the trailing MaxAge window.
	RetainMaxAge
)

// Retention is the engine's eviction policy. Evicted epochs leave the
// merge set permanently: Quantile / Selectivity then describe only the
// retained window plus whatever is still unsealed in the live stripes.
type Retention struct {
	Kind RetentionKind
	// K is the seal count kept under RetainLastK (equal to the epoch
	// count when compaction is off).
	K int
	// MaxAge is the sliding window width under RetainMaxAge. Expired
	// epochs are dropped on every rotation and on snapshot rebuilds, so a
	// quiet engine still ages out without a rotation timer.
	MaxAge time.Duration
}

// Validate checks the retention invariants.
func (r Retention) Validate() error {
	switch r.Kind {
	case RetainAll:
		return nil
	case RetainLastK:
		if r.K < 1 {
			return fmt.Errorf("%w: RetainLastK needs K ≥ 1, got %d", core.ErrConfig, r.K)
		}
	case RetainMaxAge:
		if r.MaxAge <= 0 {
			return fmt.Errorf("%w: RetainMaxAge needs MaxAge > 0, got %v", core.ErrConfig, r.MaxAge)
		}
	default:
		return fmt.Errorf("%w: unknown retention kind %d", core.ErrConfig, r.Kind)
	}
	return nil
}

// EpochStats describes one retained epoch (Engine.Epochs). FirstID, Seals
// and FirstSealedAt expose the span a compacted entry covers; for an
// uncompacted entry FirstID == ID, Seals == 1 and FirstSealedAt equals
// SealedAt.
type EpochStats struct {
	ID            uint64      `json:"id"`
	FirstID       uint64      `json:"first_id"`
	Seals         int64       `json:"seals"`
	N             int64       `json:"n"`
	Bytes         int64       `json:"bytes"`
	Samples       int         `json:"samples"`
	SealedAt      time.Time   `json:"sealed_at"`
	FirstSealedAt time.Time   `json:"first_sealed_at"`
	Source        EpochSource `json:"source"`
}

// Rotate seals every stripe's completed runs into one new epoch and
// applies retention. It returns whether an epoch was sealed — false when
// no stripe had a completed run, in which case only retention ran. Safe
// for concurrent use; explicit calls compose with the automatic
// EpochPolicy triggers, and wait for a seal an ingest left in flight (see
// IngestBatch), returning the error it met.
func (e *Engine[T]) Rotate() (sealed bool, err error) {
	if err := e.waitSealErr(); err != nil {
		return false, err
	}
	e.epochMu.Lock()
	sealed, err = e.rotateLocked(time.Now())
	e.epochMu.Unlock()
	if err != nil {
		return sealed, err
	}
	// Compaction after the seal, outside epochMu: the buddy merges can be
	// expensive and must not stall readers of the just-published ring. It
	// never changes the merge set's content, so a failure (impossible
	// with same-step epochs) must not unwind an already-successful seal.
	if _, cerr := e.compactPass(false); cerr != nil {
		return sealed, cerr
	}
	return sealed, nil
}

// rotateLocked performs a rotation under epochMu. Each stripe's Seal
// settles a run an ingest filled first, so the run is sealed with the
// runs before it.
func (e *Engine[T]) rotateLocked(now time.Time) (bool, error) {
	parts := make([]*core.Summary[T], 0, len(e.stripes))
	for _, st := range e.stripes {
		st.mu.Lock()
		s := st.sb.Seal()
		st.mu.Unlock()
		if s.N() > 0 {
			parts = append(parts, s)
		}
	}
	sealed := false
	if len(parts) > 0 {
		sum, err := core.MergeAll(parts)
		if err != nil {
			return false, err
		}
		e.appendEpochLocked(&Epoch[T]{Summary: sum, SealedAt: now, Source: EpochIngest})
		e.pending.Add(-sum.N())
		e.sealRate.observe(now)
		sealed = true
	}
	evicted := e.applyRetentionLocked(now)
	if sealed || evicted {
		e.version.Add(1)
	}
	return sealed, nil
}

// appendEpochLocked assigns the next ID, completes the single-seal span
// metadata and publishes a new ring slice (copy-on-write: readers hold
// the previous immutable slice).
func (e *Engine[T]) appendEpochLocked(ep *Epoch[T]) {
	ep.ID = e.nextEpoch.Add(1)
	ep.FirstID = ep.ID
	ep.Seals = 1
	ep.Bytes = ep.Summary.N() * e.elemSize
	ep.FirstSealedAt = ep.SealedAt
	old := *e.ring.Load()
	ring := make([]*Epoch[T], len(old), len(old)+1)
	copy(ring, old)
	ring = append(ring, ep)
	e.publishRingLocked(&ring)
	e.sealedEpochs.Add(1)
}

// applyRetentionLocked drops aged epochs from the front of the ring and
// reports whether anything was evicted.
func (e *Engine[T]) applyRetentionLocked(now time.Time) bool {
	ring := *e.ring.Load()
	cut := 0
	switch e.retain.Kind {
	case RetainLastK:
		// Count covered SEALS, not ring entries: on an uncompacted ring
		// (every entry covers one seal) this is exactly "the newest K
		// entries"; on a compacted ring it keeps the shortest suffix
		// covering at least K seals, so "last K" keeps meaning K seals'
		// worth of data — conservatively over-retaining by at most the
		// oldest surviving entry's span, never dropping in-window seals.
		var seals int64
		for cut = len(ring); cut > 0 && seals < int64(e.retain.K); cut-- {
			seals += ring[cut-1].Seals
		}
	case RetainMaxAge:
		cut = e.expiredCut(ring, now)
	}
	if cut == 0 {
		return false
	}
	for _, ep := range ring[:cut] {
		e.evictedN.Add(ep.Summary.N())
		// Seal-weighted, like SealedEpochs (which increments once per
		// seal/absorb, never for compacted entries): evicting a compacted
		// entry evicts every seal it covers, so SealedEpochs −
		// EvictedEpochs keeps meaning "retained seals".
		e.evictedEpochs.Add(ep.Seals)
	}
	rest := append([]*Epoch[T](nil), ring[cut:]...)
	e.publishRingLocked(&rest)
	return true
}

// maybeRotate applies the EpochPolicy count/bytes triggers after an
// ingest, from the goroutine the ingest starts (see IngestBatch) or from
// admit. When another rotation is already in flight the trigger is
// skipped — that rotation will observe the same pending state.
func (e *Engine[T]) maybeRotate() error {
	if !e.overThreshold() {
		return nil
	}
	if !e.epochMu.TryLock() {
		return nil
	}
	if !e.overThreshold() {
		e.epochMu.Unlock()
		return nil
	}
	_, err := e.rotateLocked(time.Now())
	e.epochMu.Unlock()
	if err == nil {
		// Same post-seal compaction as Rotate, outside epochMu.
		_, err = e.compactPass(false)
	}
	return err
}

// overThreshold reports whether unsealed state exceeds an EpochPolicy
// bound.
func (e *Engine[T]) overThreshold() bool {
	p := e.pending.Load()
	if e.policy.MaxElems > 0 && p >= e.policy.MaxElems {
		return true
	}
	return e.policy.MaxBytes > 0 && p*e.elemSize >= e.policy.MaxBytes
}

// expiredCut returns the length of ring's expired prefix at now: the
// epochs a query issued now would NOT serve under RetainMaxAge, even if
// no eviction pass (rotation or snapshot rebuild) has physically dropped
// them yet. Epochs are appended chronologically, so expiry is always a
// prefix; for other retention kinds the cut is zero.
func (e *Engine[T]) expiredCut(ring []*Epoch[T], now time.Time) int {
	if e.retain.Kind != RetainMaxAge {
		return 0
	}
	cut := 0
	for cut < len(ring) && now.Sub(ring[cut].SealedAt) > e.retain.MaxAge {
		cut++
	}
	return cut
}

// Epochs reports the retained ring, oldest first, excluding epochs whose
// sliding-window age has already expired (see expiredCut) — reporting
// never shows epochs a query would not serve. It waits for a seal an
// ingest left in flight (see IngestBatch).
func (e *Engine[T]) Epochs() []EpochStats {
	e.waitSeal()
	full := *e.ring.Load()
	ring := full[e.expiredCut(full, time.Now()):]
	out := make([]EpochStats, len(ring))
	for i, ep := range ring {
		out[i] = EpochStats{
			ID:            ep.ID,
			FirstID:       ep.FirstID,
			Seals:         ep.Seals,
			N:             ep.Summary.N(),
			Bytes:         ep.Bytes,
			Samples:       ep.Summary.SampleCount(),
			SealedAt:      ep.SealedAt,
			FirstSealedAt: ep.FirstSealedAt,
			Source:        ep.Source,
		}
	}
	return out
}

// PendingElems returns the number of elements not yet sealed into an
// epoch (completed-but-unsealed runs plus partial buffers), once a seal
// an ingest left in flight is cut.
func (e *Engine[T]) PendingElems() int64 {
	e.waitSeal()
	return e.pending.Load()
}

// PendingBytes returns the encoded size of the unsealed elements — the
// quantity ingest backpressure bounds — once a seal an ingest left in
// flight is cut.
func (e *Engine[T]) PendingBytes() int64 { return e.PendingElems() * e.elemSize }

// MaxPending returns the engine-side bounded-admission threshold
// (Options.MaxPending); 0 means admission is unbounded.
func (e *Engine[T]) MaxPending() int64 { return e.maxPending }

// Close stops the rotation timer, if the EpochPolicy started one. It does
// not flush or checkpoint; the engine remains usable for everything except
// timer-driven rotation. Safe to call multiple times.
func (e *Engine[T]) Close() error {
	e.closeOnce.Do(func() {
		if e.tickStop != nil {
			close(e.tickStop)
		}
	})
	return nil
}
