package core

import "math/bits"

// Merge-set compaction. A long-lived epoch lifecycle accumulates one
// summary per seal, so the merge set a snapshot rebuild reassembles — and
// the ring a retention policy walks — grows linearly with time. Because
// OPAQ summaries are mergeable without information loss (MergeAll: the
// sample multiset, counts and extrema are order-independent), adjacent
// summaries can be pre-merged at any time without changing a single
// answer. PlanBuddiesBy plans this binary-buddy style, the size-tiered
// scheme of LSM trees and binomial heaps, and MergeAll merges each
// planned span: summaries whose element counts share a power-of-two tier
// merge pairwise, each merged pair lands one tier up and may cascade into
// its neighbor, and the fixpoint holds O(log N) summaries.
//
// Only ADJACENT summaries merge, so a chronologically ordered set stays
// chronologically ordered — each output covers a contiguous span of the
// inputs — and age- or count-based retention keeps working on the
// compacted set.

// SizeTier returns the binary-buddy size tier of an element count:
// ⌊log₂ n⌋, with n ≤ 1 mapping to tier 0. Merging two tier-t summaries
// always yields a tier-(t+1) summary (the sum of two values in
// [2ᵗ, 2ᵗ⁺¹) lies in [2ᵗ⁺¹, 2ᵗ⁺²)), which is what makes greedy buddy
// merging behave like a binary counter and bounds the compacted set's
// size logarithmically.
func SizeTier(n int64) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(uint64(n)) - 1
}

// PlanBuddiesBy computes a greedy binary-buddy compaction plan over an
// ordered (oldest-first) list of entries. Scanning left to right, an
// adjacent pair merges when the older entry's tier (SizeTier of size) is
// at or below the newer entry's — same-tier buddies (the binary-counter
// core) and undersized older entries that would otherwise stall behind a
// larger newer neighbor both fold — and passes repeat until a fixpoint.
// Without a gate, tiers strictly decrease from oldest to newest at the
// fixpoint, so the plan holds at most one entry per occupied tier:
// ≤ log₂(ΣN)+1 entries.
//
// Entries carry arbitrary bookkeeping E: size extracts the element count
// the tier rule compares, fold combines two entries' bookkeeping when
// their spans merge, and gate — when non-nil — may veto an otherwise
// eligible merge (an engine uses it to cap a merged epoch's covered time
// or seal span so retention fidelity survives compaction).
//
// The result is the ordered list of half-open index spans [start, end)
// into items, covering all of items; a span of width 1 is an entry left
// alone. A nil or empty items yields an empty plan.
//
// A gate weakens the fixpoint: vetoed pairs may leave adjacent
// non-decreasing tiers, so the depth bound becomes "logarithmic per
// gated region" rather than globally logarithmic — the caller trades
// depth for whatever invariant the gate protects.
func PlanBuddiesBy[E any](items []E, size func(E) int64, fold func(a, b E) E, gate func(older, newer E) bool) [][2]int {
	spans := make([][2]int, len(items))
	work := append([]E(nil), items...)
	for i := range items {
		spans[i] = [2]int{i, i + 1}
	}
	for changed := true; changed; {
		changed = false
		// In-place compaction of spans/work is safe: each output index
		// trails the input indices it reads.
		outS := spans[:0]
		outW := work[:0]
		i := 0
		for i < len(work) {
			if i+1 < len(work) && SizeTier(size(work[i])) <= SizeTier(size(work[i+1])) &&
				(gate == nil || gate(work[i], work[i+1])) {
				outS = append(outS, [2]int{spans[i][0], spans[i+1][1]})
				outW = append(outW, fold(work[i], work[i+1]))
				i += 2
				changed = true
			} else {
				outS = append(outS, spans[i])
				outW = append(outW, work[i])
				i++
			}
		}
		spans, work = outS, outW
	}
	return spans
}
