// Package histogram builds equi-depth histograms from OPAQ quantile
// summaries and answers range-selectivity queries — the query-optimizer
// application the paper's introduction motivates ("quantile algorithms can
// generate equi-depth histograms, which have been used to estimate query
// result sizes").
//
// An equi-depth histogram with B buckets places its boundaries at the
// 1/B, 2/B, …, (B−1)/B quantiles, so each bucket holds ≈ n/B elements.
// With OPAQ bounds, every boundary is within n/s elements of the ideal
// split, giving a deterministic ceiling on the selectivity error of any
// range predicate — the property that made equi-depth histograms viable
// for skewed data where equi-width histograms fail.
package histogram

import (
	"cmp"
	"fmt"

	"opaq/internal/core"
)

// EquiDepth is an equi-depth histogram over keys of any ordered type.
type EquiDepth[T cmp.Ordered] struct {
	// boundaries[i] is the upper boundary of bucket i (inclusive); the last
	// boundary is the dataset maximum.
	boundaries []T
	min        T
	n          int64
	depth      float64 // ideal elements per bucket, n/B
	// slack is the deterministic per-boundary rank uncertainty inherited
	// from the summary (≈ n/s).
	slack int64
}

// Build constructs a B-bucket equi-depth histogram from an OPAQ summary,
// using the upper bound of each quantile enclosure as the bucket boundary.
func Build[T cmp.Ordered](s *core.Summary[T], buckets int) (*EquiDepth[T], error) {
	if buckets < 1 {
		return nil, fmt.Errorf("histogram: need ≥1 bucket, got %d", buckets)
	}
	if s.N() == 0 {
		return nil, core.ErrEmpty
	}
	h := &EquiDepth[T]{
		min:   s.Min(),
		n:     s.N(),
		depth: float64(s.N()) / float64(buckets),
		slack: s.ErrorBound(),
	}
	for i := 1; i < buckets; i++ {
		b, err := s.Bounds(float64(i) / float64(buckets))
		if err != nil {
			return nil, err
		}
		h.boundaries = append(h.boundaries, b.Upper)
	}
	h.boundaries = append(h.boundaries, s.Max())
	return h, nil
}

// Buckets returns the number of buckets.
func (h *EquiDepth[T]) Buckets() int { return len(h.boundaries) }

// Boundaries returns the bucket upper boundaries (ascending; last is the
// maximum). Callers must not modify the slice.
func (h *EquiDepth[T]) Boundaries() []T { return h.boundaries }

// N returns the number of elements the histogram summarizes.
func (h *EquiDepth[T]) N() int64 { return h.n }

// SlackRanks returns the per-boundary rank uncertainty in elements.
func (h *EquiDepth[T]) SlackRanks() int64 { return h.slack }

// EstimateLE estimates the number of elements ≤ x by locating x's bucket
// and interpolating within it (the classic equi-depth estimator: each
// bucket holds depth elements; the fraction inside the bucket is assumed
// uniform — here in rank space, i.e. half-bucket resolution at worst).
//
// On heavily skewed data, adjacent boundaries collide: a value holding
// more than a bucket's worth of duplicates is the upper boundary of every
// bucket it fills. All those buckets lie at or below x, so the estimate
// counts through the LAST boundary equal to x — stopping at the first one
// (as a naive lower-bound search does) undercounts by whole buckets.
func (h *EquiDepth[T]) EstimateLE(x T) float64 {
	if x < h.min {
		return 0
	}
	// ub is the number of boundaries ≤ x: everything in buckets 0..ub-1 is
	// ≤ their boundaries ≤ x, including every bucket a duplicated boundary
	// value spans.
	lo, hi := 0, len(h.boundaries)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.boundaries[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	ub := lo
	if ub == len(h.boundaries) {
		return float64(h.n)
	}
	if ub > 0 && h.boundaries[ub-1] == x {
		return float64(ub) * h.depth
	}
	// x lies strictly inside bucket ub; attribute half the bucket (expected
	// rank of a uniformly placed point within its bucket).
	return (float64(ub) + 0.5) * h.depth
}

// estimateLT estimates the number of elements strictly below x —
// EstimateLE's half-open counterpart. On a duplicated boundary value the
// two differ by every bucket the duplicates span: buckets closing strictly
// below x count in full, the value's own mass not at all. Deriving the
// strict count by shifting EstimateLE would re-include that mass and
// wreck ranges that start at a heavy hitter.
func (h *EquiDepth[T]) estimateLT(x T) float64 {
	if x <= h.min {
		return 0
	}
	// lb: first boundary ≥ x. Buckets 0..lb-1 close strictly below x.
	lo, hi := 0, len(h.boundaries)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.boundaries[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(h.boundaries) {
		return float64(h.n)
	}
	if h.boundaries[lo] == x {
		return float64(lo) * h.depth
	}
	// x interior to bucket lo: same interpolation as EstimateLE (the two
	// estimates differ only by duplicates of a non-boundary x, assumed
	// below bucket resolution).
	return (float64(lo) + 0.5) * h.depth
}

// EstimateRange estimates the number of elements in the closed range
// [a, b] — the selectivity numerator of a range predicate. The closed
// count is elements ≤ b minus elements < a, each endpoint estimated at
// half-bucket resolution, so the error stays within MaxRangeError even
// when an endpoint is a heavy hitter spanning several buckets.
func (h *EquiDepth[T]) EstimateRange(a, b T) float64 {
	if b < a {
		return 0
	}
	est := h.EstimateLE(b) - h.estimateLT(a)
	if est < 0 {
		est = 0
	}
	if est > float64(h.n) {
		est = float64(h.n)
	}
	return est
}

// Selectivity estimates the fraction of elements in [a, b].
func (h *EquiDepth[T]) Selectivity(a, b T) float64 {
	return h.EstimateRange(a, b) / float64(h.n)
}

// MaxRangeError returns a deterministic ceiling on the absolute error of
// EstimateRange, in elements: one bucket of interpolation uncertainty per
// endpoint plus the OPAQ boundary slack per endpoint.
func (h *EquiDepth[T]) MaxRangeError() float64 {
	return 2 * (h.depth + float64(h.slack))
}
