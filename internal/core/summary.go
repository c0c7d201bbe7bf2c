package core

import (
	"cmp"
	"fmt"

	"opaq/internal/merge"
)

// Summary is the product of OPAQ's sample phase: the sorted sample list
// plus the bookkeeping needed to turn it into deterministic quantile
// bounds. It is immutable after construction; all methods are safe for
// concurrent use.
type Summary[T cmp.Ordered] struct {
	samples  []T   // merged sorted sample list (length Σ sᵢ over runs)
	step     int64 // m/s: data elements represented per sample point
	runs     int64 // r: number of runs merged in
	n        int64 // total data elements observed
	leftover int64 // elements in ragged run tails not covered by a sub-run
	min, max T     // exact extrema of the observed data
}

// Bounds is a deterministic enclosure of one true quantile value.
type Bounds[T cmp.Ordered] struct {
	// Phi is the quantile fraction in (0, 1].
	Phi float64
	// Rank is ψ = ⌈Phi·n⌉, the 1-based rank of the true quantile.
	Rank int64
	// Lower and Upper satisfy Lower ≤ e_Phi ≤ Upper.
	Lower, Upper T
	// MaxBelow bounds the number of data elements strictly between Lower
	// and the true quantile (Lemma 1: ≤ n/s for divisible runs).
	MaxBelow int64
	// MaxAbove bounds the number of data elements strictly between the true
	// quantile and Upper (Lemma 2).
	MaxAbove int64
}

// emptySummary is the canonical zero-element summary, shared by every
// construction path — Build over an empty reader, StreamBuilder.Summary
// before any Add, NewSummary with N == 0 — so the empty behaviors are
// identical everywhere: N() is 0, Bounds/BoundsAtRank/Quantiles return
// ErrEmpty, RankBounds and CDF return zeros, ErrorBound is 0, and Min/Max
// are the element type's zero value (meaningless until n > 0; Bounds is
// the error-checked way to ask for extrema).
func emptySummary[T cmp.Ordered](step int64) *Summary[T] {
	return &Summary[T]{step: step}
}

// N returns the number of data elements the summary covers.
func (s *Summary[T]) N() int64 { return s.n }

// Runs returns r, the number of runs merged into the summary.
func (s *Summary[T]) Runs() int64 { return s.runs }

// Step returns m/s, the sub-run size.
func (s *Summary[T]) Step() int64 { return s.step }

// SampleCount returns the length of the sorted sample list.
func (s *Summary[T]) SampleCount() int { return len(s.samples) }

// Samples returns the sorted sample list. The caller must not modify it.
func (s *Summary[T]) Samples() []T { return s.samples }

// Min returns the exact minimum of the observed data. On an empty summary
// it is the element type's zero value and meaningless; callers that need
// an error on empty should use Bounds, which returns ErrEmpty.
func (s *Summary[T]) Min() T { return s.min }

// Max returns the exact maximum of the observed data. On an empty summary
// it is the element type's zero value and meaningless, as for Min.
func (s *Summary[T]) Max() T { return s.max }

// ErrorBound returns the maximum possible number of elements between a true
// quantile and either estimated bound — the quantity Lemmas 1 and 2 bound
// by n/s when every run is full. For ragged inputs (final run shorter than
// m, or runs shorter than one sub-run) the bound degrades by the number of
// uncovered elements, which this method accounts exactly.
func (s *Summary[T]) ErrorBound() int64 {
	if s.n == 0 {
		return 0
	}
	// See Bounds derivation: NL ≤ step + (r−1)(step−1) + leftover + 1.
	return s.step + (s.runs-1)*(s.step-1) + s.leftover + 1
}

// slack is the worst-case overcount of "elements less than sample i" beyond
// i·step: up to step−1 elements from each of the other r−1 runs' partial
// sub-runs (paper, Appendix A, Results 3–4) plus every uncovered leftover
// element.
func (s *Summary[T]) slack() int64 {
	return (s.runs-1)*(s.step-1) + s.leftover
}

// Bounds returns the deterministic enclosure of the φ-quantile. φ must lie
// in (0, 1]; φ = 1 is the maximum. The true φ-quantile is the element of
// rank ⌈φ·n⌉ in sorted order (the paper's ψ = φ·n with rounding up so that
// φ→0⁺ maps to the minimum and φ=1 to the maximum).
func (s *Summary[T]) Bounds(phi float64) (Bounds[T], error) {
	var b Bounds[T]
	if s.n == 0 {
		return b, ErrEmpty
	}
	// NaN fails every comparison, so the validity check must be phrased
	// positively — `phi <= 0 || phi > 1` would wave NaN through and turn
	// it into a garbage rank.
	if !(phi > 0 && phi <= 1) {
		return b, fmt.Errorf("%w: phi=%g", ErrPhi, phi)
	}
	rank := int64(phi * float64(s.n))
	if float64(rank) < phi*float64(s.n) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank > s.n {
		rank = s.n
	}
	return s.BoundsAtRank(rank)
}

// BoundsAtRank returns the enclosure of the element with 1-based rank ψ.
//
// Lower bound (paper formulas 1–3): e_l is the i-th sorted sample with i
// the largest index such that the maximum possible number of elements
// strictly less than sample i — i·step + (r−1)(step−1) + leftover — is
// at most ψ−1, so sample i cannot sort after the rank-ψ element. When no
// sample qualifies (small ψ), the exact dataset minimum is the bound.
//
// Upper bound (paper formulas 4–5): e_u is the j-th sorted sample with
// j = ⌈ψ/step⌉; at least j·step ≥ ψ elements are ≤ sample j (Appendix A,
// Result 2), so sample j cannot sort before the rank-ψ element. When
// j exceeds the sample count (ψ in the uncovered tail), the exact dataset
// maximum is the bound.
func (s *Summary[T]) BoundsAtRank(rank int64) (Bounds[T], error) {
	var b Bounds[T]
	if s.n == 0 {
		return b, ErrEmpty
	}
	if rank < 1 || rank > s.n {
		return b, fmt.Errorf("%w: rank %d outside [1, %d]", ErrPhi, rank, s.n)
	}
	b.Rank = rank
	b.Phi = float64(rank) / float64(s.n)

	// Lower bound index i (1-based into samples); 0 means "use min".
	i := (rank - 1 - s.slack()) / s.step // floor for non-negative numerator
	if rank-1-s.slack() < 0 {
		i = 0
	}
	if i > int64(len(s.samples)) {
		i = int64(len(s.samples))
	}
	if i >= 1 {
		b.Lower = s.samples[i-1]
	} else {
		b.Lower = s.min
	}
	// Lemma 1 accounting: at least i·step elements are ≤ e_l, so at most
	// rank − i·step − 1 lie strictly between e_l and the true quantile
	// (≤ n/s for full runs; ErrorBound gives the exact worst case).
	b.MaxBelow = rank - i*s.step - 1
	if b.MaxBelow < 0 {
		b.MaxBelow = 0
	}

	// Upper bound index j = ⌈rank/step⌉; beyond the list means "use max".
	j := (rank + s.step - 1) / s.step
	if j <= int64(len(s.samples)) {
		b.Upper = s.samples[j-1]
		// At most j·step + slack elements are < e_u ⇒ at most that many −
		// rank lie strictly between the true quantile and e_u.
		b.MaxAbove = j*s.step + s.slack() - rank
	} else {
		b.Upper = s.max
		b.MaxAbove = s.n - rank
	}
	if b.MaxAbove < 0 {
		b.MaxAbove = 0
	}
	if b.MaxAbove > s.n-rank {
		b.MaxAbove = s.n - rank
	}
	return b, nil
}

// Quantiles returns bounds for the q−1 equally spaced quantiles
// φ = 1/q, 2/q, …, (q−1)/q (e.g. q=10 yields the paper's dectiles).
// Each additional quantile costs O(1) beyond the shared sample list —
// the paper's "constant extra time per quantile".
func (s *Summary[T]) Quantiles(q int) ([]Bounds[T], error) {
	if q < 2 {
		return nil, fmt.Errorf("%w: need q ≥ 2, got %d", ErrPhi, q)
	}
	if s.n == 0 {
		return nil, ErrEmpty
	}
	out := make([]Bounds[T], 0, q-1)
	for i := 1; i < q; i++ {
		b, err := s.Bounds(float64(i) / float64(q))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// RankBounds returns deterministic bounds [lo, hi] on the number of data
// elements ≤ x, without touching the data again (paper, Section 4: "the
// sorted sample list can obviously be used to estimate the rank of any
// arbitrary element").
func (s *Summary[T]) RankBounds(x T) (lo, hi int64) {
	if s.n == 0 {
		return 0, 0
	}
	if x < s.min {
		return 0, 0 // exact: nothing sorts below the tracked minimum
	}
	if x >= s.max {
		return s.n, s.n // exact: everything is ≤ the tracked maximum
	}
	// kLE: samples ≤ x; each closes a disjoint sub-run of step elements ≤ it.
	// Open-coded upper-bound binary search over a pre-hoisted slice, so the
	// per-probe cost is pure compare-and-halve with no closure indirection;
	// BenchmarkRankBounds tracks this path against the sort.Search form it
	// replaced (a few percent on cache-resident lists; the search is
	// memory-bound beyond that).
	samples := s.samples
	lo64, hi64 := 0, len(samples)
	for lo64 < hi64 {
		h := int(uint(lo64+hi64) >> 1)
		if samples[h] <= x {
			lo64 = h + 1
		} else {
			hi64 = h
		}
	}
	kLE := int64(lo64)
	lo = kLE * s.step
	// Per run, at most step−1 elements of the next partial sub-run are ≤ x
	// without their closing sample being ≤ x; leftovers are unaccounted.
	hi = kLE*s.step + s.runs*(s.step-1) + s.leftover
	if hi > s.n {
		hi = s.n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Merge combines two summaries built with the same step into one that
// covers the union of their data (paper, Section 4: incremental handling of
// new data — keep the old sorted samples, sample the new runs, merge).
// Neither input is modified.
func Merge[T cmp.Ordered](a, b *Summary[T]) (*Summary[T], error) {
	if a.n == 0 {
		return b, nil
	}
	if b.n == 0 {
		return a, nil
	}
	if a.step != b.step {
		return nil, fmt.Errorf("%w: step %d vs %d (same RunLen/SampleSize ratio required)",
			ErrIncompatible, a.step, b.step)
	}
	return &Summary[T]{
		samples:  merge.Two(make([]T, 0, len(a.samples)+len(b.samples)), a.samples, b.samples),
		step:     a.step,
		runs:     a.runs + b.runs,
		n:        a.n + b.n,
		leftover: a.leftover + b.leftover,
		min:      min(a.min, b.min),
		max:      max(a.max, b.max),
	}, nil
}

// CDF returns deterministic bounds on the empirical cumulative
// distribution at x: the fraction of elements ≤ x lies in [lo, hi]. It is
// RankBounds normalized by n — the estimate a cost-based optimizer feeds
// into predicate selectivity.
func (s *Summary[T]) CDF(x T) (lo, hi float64) {
	if s.n == 0 {
		return 0, 0
	}
	rl, rh := s.RankBounds(x)
	return float64(rl) / float64(s.n), float64(rh) / float64(s.n)
}
