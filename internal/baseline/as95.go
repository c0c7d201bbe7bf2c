package baseline

import (
	"fmt"
	"sort"
)

// AgrawalSwami reimplements the one-pass interval algorithm of Agrawal and
// Swami, "A One-Pass Space-Efficient Algorithm for Finding Quantiles"
// (COMAD 1995) — the [AS95] comparison point of Table 7. The algorithm
// partitions the observed value range into at most k intervals and counts
// the values falling in each; boundaries are created from the data itself
// as it streams by and are re-adjusted (split the heaviest interval, merge
// the lightest neighbours) so the histogram stays approximately
// equi-depth. Quantiles are estimated by linear interpolation inside the
// interval containing the target rank.
//
// The paper's criticism of this algorithm — which Table 7 illustrates — is
// that it provides no deterministic bound on the error: a split can only
// divide an interval's count evenly by assumption, so skew inside an
// interval is invisible. This is a substitute, not the original code: it
// follows the published description at the level of detail the OPAQ paper
// relies on (interval counts, on-the-fly boundary adjustment), so Table 7's
// [AS95] column measures this reimplementation.
type AgrawalSwami struct {
	maxIv  int
	bounds []int64 // interval upper boundaries, sorted; len = #intervals
	counts []float64
	seen   int64
}

// NewAgrawalSwami creates an estimator with at most k intervals. Its
// memory footprint is 2k element-equivalents (boundary + count per
// interval).
func NewAgrawalSwami(k int) (*AgrawalSwami, error) {
	if k < 4 {
		return nil, fmt.Errorf("baseline: AgrawalSwami needs k ≥ 4 intervals, got %d", k)
	}
	return &AgrawalSwami{maxIv: k}, nil
}

// Name implements Estimator.
func (a *AgrawalSwami) Name() string { return "AS95" }

// MemoryElems implements Estimator: one boundary plus one count per
// interval.
func (a *AgrawalSwami) MemoryElems() int { return 2 * a.maxIv }

// Add implements Estimator.
func (a *AgrawalSwami) Add(x int64) {
	a.seen++
	// Bootstrap: the first maxIv distinct-ish values become boundaries.
	if len(a.bounds) < a.maxIv {
		i := sort.Search(len(a.bounds), func(i int) bool { return a.bounds[i] >= x })
		if i < len(a.bounds) && a.bounds[i] == x {
			a.counts[i]++
			return
		}
		a.bounds = append(a.bounds, 0)
		a.counts = append(a.counts, 0)
		copy(a.bounds[i+1:], a.bounds[i:])
		copy(a.counts[i+1:], a.counts[i:])
		a.bounds[i] = x
		a.counts[i] = 1
		return
	}
	// Steady state: count x into the first interval whose boundary ≥ x;
	// values above the top boundary stretch the last interval.
	i := sort.Search(len(a.bounds), func(i int) bool { return a.bounds[i] >= x })
	if i == len(a.bounds) {
		i--
		a.bounds[i] = x // extend the top boundary to cover the new maximum
	}
	a.counts[i]++
	// Re-adjust: if the hit interval grew beyond twice the ideal depth,
	// split it at its value midpoint (assuming intra-interval uniformity,
	// exactly the assumption that denies [AS95] a deterministic bound) and
	// merge the globally lightest adjacent pair to stay within k intervals.
	ideal := float64(a.seen) / float64(a.maxIv)
	if a.counts[i] > 2*ideal && ideal >= 1 {
		a.splitAndMerge(i)
	}
}

// splitAndMerge splits interval i at its value midpoint and merges the
// lightest adjacent pair elsewhere to restore the interval budget.
func (a *AgrawalSwami) splitAndMerge(i int) {
	var lo int64
	if i == 0 {
		lo = a.bounds[0] - 1 // open lower end: approximate with the boundary
	} else {
		lo = a.bounds[i-1]
	}
	hi := a.bounds[i]
	if hi-lo < 2 {
		return // nothing to split: boundaries are adjacent values
	}
	mid := lo + (hi-lo)/2
	// Find the lightest adjacent pair, excluding the interval being split.
	best, bestSum := -1, 0.0
	for j := 0; j+1 < len(a.bounds); j++ {
		if j == i || j+1 == i {
			continue
		}
		s := a.counts[j] + a.counts[j+1]
		if best == -1 || s < bestSum {
			best, bestSum = j, s
		}
	}
	if best == -1 {
		return
	}
	// Merge best and best+1.
	a.counts[best+1] += a.counts[best]
	copy(a.bounds[best:], a.bounds[best+1:])
	copy(a.counts[best:], a.counts[best+1:])
	a.bounds = a.bounds[:len(a.bounds)-1]
	a.counts = a.counts[:len(a.counts)-1]
	if best < i {
		i--
	}
	// Split i at mid: half the count on each side (uniformity assumption).
	a.bounds = append(a.bounds, 0)
	a.counts = append(a.counts, 0)
	copy(a.bounds[i+1:], a.bounds[i:])
	copy(a.counts[i+1:], a.counts[i:])
	a.bounds[i] = mid
	half := a.counts[i+1] / 2
	a.counts[i] = half
	a.counts[i+1] -= half
}

// Quantile implements Estimator: it returns the upper boundary of the
// interval containing the target rank, as the interval-count algorithms of
// [AS95]/[SD77] do — the estimate's rank error is up to one interval's
// population, which is exactly why the paper notes the approach carries no
// deterministic bound (interval populations drift under skew).
func (a *AgrawalSwami) Quantile(phi float64) (int64, error) {
	if a.seen == 0 {
		return 0, ErrNoData
	}
	if !(phi > 0 && phi <= 1) { // positive phrasing also rejects NaN
		return 0, fmt.Errorf("baseline: phi=%g out of (0,1]", phi)
	}
	target := phi * float64(a.seen)
	cum := 0.0
	for i, c := range a.counts {
		if cum+c >= target {
			return a.bounds[i], nil
		}
		cum += c
	}
	return a.bounds[len(a.bounds)-1], nil
}
