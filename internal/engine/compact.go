// Epoch compaction: a keep-all engine under continuous rotation gains one
// ring entry per seal, so snapshot-rebuild fan-in, /stats payloads and
// retention bookkeeping grow without bound. Because sealed summaries merge
// without information loss, adjacent epochs can be pre-merged at any time
// with answers — and checkpoint bytes — provably unchanged; compaction
// does so binary-buddy style (core.PlanBuddiesBy plans the spans,
// core.MergeAll reassembles each), holding the ring at O(log N) entries.
// A compacted epoch carries the covered epoch-ID
// span, the merged element count and byte size, and the covered seal-time
// range, so last-K and age-based retention keep operating on ring entries
// at span granularity: an entry is evicted only when its NEWEST covered
// seal leaves the window (never early), last-K counts covered seals, and
// a retention gate (compactGate) caps each merged span at half the
// window, bounding over-retention at 1.5× what the policy promises.
package engine

import (
	"fmt"
	"time"

	"opaq/internal/core"
)

// CompactionPolicy controls background binary-buddy compaction of the
// sealed-epoch ring. The zero value never compacts automatically;
// Engine.Compact still works.
type CompactionPolicy struct {
	// Enabled turns on compaction after every rotation and absorb
	// (restore, bulk load), and on snapshot rebuilds — so a quiet engine
	// that only answers queries still converges to the compacted shape.
	Enabled bool
	// MinEpochs is a trigger floor: automatic compaction runs only while
	// the ring holds more than MinEpochs entries. It preserves eviction
	// granularity for shallow rings (entries that never compact evict one
	// seal at a time). 0 means no floor. Explicit Compact calls ignore it.
	MinEpochs int
}

// Validate checks the policy invariants.
func (p CompactionPolicy) Validate() error {
	if p.MinEpochs < 0 {
		return fmt.Errorf("%w: CompactionPolicy.MinEpochs must be non-negative, got %d", core.ErrConfig, p.MinEpochs)
	}
	return nil
}

// Compact runs one compaction pass to fixpoint, regardless of whether the
// CompactionPolicy is enabled (symmetric with Rotate, which works without
// an EpochPolicy). It reports whether the ring changed — false also when
// a concurrent seal or eviction invalidated the pass mid-merge (see
// compactPass). Compaction never changes answers: the merged snapshot,
// every quantile/rank/selectivity result and the checkpoint bytes are
// byte-identical before and after, so a cached snapshot stays valid
// across it.
func (e *Engine[T]) Compact() (bool, error) {
	return e.compactPass(true)
}

// epochMeta is the bookkeeping the buddy planner folds alongside the
// element counts: enough to evaluate the retention gate on candidate
// merged spans without touching the summaries.
type epochMeta struct {
	n, seals    int64
	first, last time.Time
}

// compactGate bounds a merged epoch's covered span so retention fidelity
// survives compaction. Eviction operates on whole ring entries, so an
// entry spanning more than half the retention window would keep
// due-for-eviction data up to a full window past its boundary; capping
// spans at half the window bounds over-retention at 1.5× the promised
// window (the entry is evicted when its newest covered seal crosses the
// boundary, and its oldest covered seal is at most half a window older).
// Keep-all engines have no boundary and merge ungated.
func (e *Engine[T]) compactGate() func(older, newer epochMeta) bool {
	switch e.retain.Kind {
	case RetainMaxAge:
		half := e.retain.MaxAge / 2
		return func(older, newer epochMeta) bool {
			return newer.last.Sub(older.first) <= half
		}
	case RetainLastK:
		limit := max(int64(e.retain.K)/2, 1)
		return func(older, newer epochMeta) bool {
			return older.seals+newer.seals <= limit
		}
	}
	return nil
}

// compactPass runs one compaction pass: plan under epochMu (cheap), run
// the k-way sample merges OUTSIDE the lock (they do O(retained samples)
// work on a top-tier carry cascade, and must not stall Stats, Rotate,
// absorb or checkpoints — the same reason rebuildLocked merges outside
// epochMu), then re-acquire and swap only if the ring is still the one
// that was planned against; a concurrent seal or eviction abandons the
// pass, and the next trigger replans. core.PlanBuddiesBy carries the
// tiering rule; compactGate adds the retention-fidelity cap. force
// bypasses the policy gate for explicit Compact calls — not the
// retention gate, which is a correctness bound, not a trigger. The
// ingest version is NOT bumped: the merge set's content is unchanged, so
// the cached snapshot remains exactly right and no rebuild is provoked.
//
// The caller must NOT hold epochMu.
func (e *Engine[T]) compactPass(force bool) (bool, error) {
	e.epochMu.Lock()
	planned := e.ring.Load()
	ring := *planned
	if !force && (!e.compaction.Enabled || len(ring) <= e.compaction.MinEpochs) {
		e.epochMu.Unlock()
		return false, nil
	}
	if len(ring) < 2 {
		e.epochMu.Unlock()
		return false, nil
	}
	metas := make([]epochMeta, len(ring))
	for i, ep := range ring {
		metas[i] = epochMeta{n: ep.Summary.N(), seals: ep.Seals, first: ep.FirstSealedAt, last: ep.SealedAt}
	}
	spans := core.PlanBuddiesBy(metas,
		func(m epochMeta) int64 { return m.n },
		func(a, b epochMeta) epochMeta {
			return epochMeta{n: a.n + b.n, seals: a.seals + b.seals, first: a.first, last: b.last}
		},
		e.compactGate())
	e.epochMu.Unlock()
	if len(spans) == len(ring) {
		return false, nil
	}

	// The merges run lock-free: epochs are immutable, and the planned
	// ring slice is a private snapshot.
	sums := make([]*core.Summary[T], len(ring))
	for i, ep := range ring {
		sums[i] = ep.Summary
	}
	compacted := make([]*Epoch[T], len(spans))
	var folded int64
	for i, sp := range spans {
		if sp[1]-sp[0] == 1 {
			compacted[i] = ring[sp[0]]
			continue
		}
		merged, err := core.MergeAll(sums[sp[0]:sp[1]])
		if err != nil {
			return false, err
		}
		// Fold the span's metadata: the ID span and seal-time range cover
		// the oldest through newest source epoch (the ring is
		// chronological, so order is preserved), counts and bytes sum.
		first, last := ring[sp[0]], ring[sp[1]-1]
		ep := &Epoch[T]{
			ID:            last.ID,
			FirstID:       first.FirstID,
			Summary:       merged,
			SealedAt:      last.SealedAt,
			FirstSealedAt: first.FirstSealedAt,
			Source:        EpochCompacted,
		}
		for _, src := range ring[sp[0]:sp[1]] {
			ep.Seals += src.Seals
			ep.Bytes += src.Bytes
		}
		compacted[i] = ep
		folded += int64(sp[1] - sp[0] - 1)
	}

	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	if e.ring.Load() != planned {
		// A seal, eviction or competing compaction changed the ring while
		// the merges ran; the work is discarded (answers were never at
		// risk — the published ring was untouched).
		return false, nil
	}
	// Publishing the compacted ring refreshes the age deadline (a
	// compacted head's SealedAt is its newest covered seal — eviction
	// never fires early) and, by swapping the slice identity, invalidates
	// the frozen-prefix cache; the next rebuild re-merges the (now
	// logarithmic) ring once. The cached SNAPSHOT stays valid: answers
	// are unchanged, so no version bump and no rebuild is provoked.
	e.publishRingLocked(&compacted)
	e.compactedEpochs.Add(folded)
	e.compactions.Add(1)
	return true, nil
}
