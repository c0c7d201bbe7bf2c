// Package selection implements linear-time selection (order statistics)
// algorithms and the multi-selection routine used by OPAQ's sample phase.
//
// The paper relies on two classical selection algorithms:
//
//   - the deterministic median-of-medians algorithm of Blum, Floyd, Pratt,
//     Rivest and Tarjan ([ea72] in the paper) with O(m) worst-case time, and
//   - randomized selection in the spirit of Floyd–Rivest ([FR75]) with O(m)
//     expected time,
//
// and on a multi-selection built by recursive median splitting: to extract
// the s regular sample ranks m/s, 2m/s, ..., m from a run of m elements,
// select the median, split, and recurse on both halves for log s levels,
// giving O(m log s) total work (Section 2.1 of the paper).
//
// SampleRun is the sample phase's entry point. It radix-selects runs of
// fixed-width numeric keys instead: an MSD radix sort that only descends
// into buckets holding a sample rank, which puts the same order statistics
// at the same ranks in a few linear passes and leaves the run partitioned
// around them, as the multi-selection does, not sorted. Given a run-sized
// scratch it scatters the top two levels out of place through it, and
// otherwise permutes every level in place. It multi-selects everything
// else.
//
// All functions reorder their input slice in place.
package selection

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
)

// ErrRankOutOfRange is returned (wrapped) when a requested rank does not lie
// inside the slice being selected from.
var ErrRankOutOfRange = errors.New("selection: rank out of range")

// Select partially reorders xs so that xs[k] holds the element of rank k
// (0-based: k = 0 is the minimum) and returns that element. It uses
// randomized quickselect with median-of-three pivoting seeded from rng,
// falling back to deterministic median-of-medians pivot selection when a
// recursion-depth budget is exhausted, so the worst case remains O(len(xs))
// (an "introselect" in the terminology of later literature; the paper cites
// [FR75] for the randomized and [ea72] for the deterministic variant).
//
// The rng may be nil, in which case a fixed-seed source is used; the result
// value is identical either way, only the reordering differs.
func Select[T cmp.Ordered](xs []T, k int, rng *rand.Rand) (T, error) {
	var zero T
	if k < 0 || k >= len(xs) {
		return zero, fmt.Errorf("%w: k=%d, len=%d", ErrRankOutOfRange, k, len(xs))
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(0x9e3779b9))
	}
	// Depth budget: 2*ceil(log2 n) randomized rounds before switching to the
	// deterministic pivot rule, mirroring introsort's safeguard.
	budget := 2 * bitLen(len(xs))
	lo, hi := 0, len(xs) // half-open [lo, hi)
	for {
		if hi-lo <= smallCutoff {
			insertionSort(xs[lo:hi])
			return xs[k], nil
		}
		var pivot int
		if budget > 0 {
			pivot = medianOfThreePivot(xs, lo, hi, rng)
			budget--
		} else {
			pivot = medianOfMediansPivot(xs, lo, hi)
		}
		lt, gt := partition3(xs, lo, hi, pivot)
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return xs[k], nil // k falls inside the run of pivot-equal elements
		}
	}
}

// smallCutoff is the subproblem size below which selection falls back to
// insertion sort; small enough to keep worst-case linearity, large enough to
// amortize the partitioning overhead.
const smallCutoff = 24

// bitLen returns the number of bits needed to represent n (≥ 1 for n ≥ 1).
func bitLen(n int) int {
	b := 0
	for n > 0 {
		n >>= 1
		b++
	}
	return b
}

// insertionSort sorts xs in place; used only for tiny subproblems.
func insertionSort[T cmp.Ordered](xs []T) {
	for i := 1; i < len(xs); i++ {
		v, j := xs[i], i
		for ; j > 0 && v < xs[j-1]; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = v
	}
}

// medianOfThreePivot picks a pivot index in [lo,hi) as the median of three
// randomly chosen positions. Returning an index (not a value) lets
// partition3 move the pivot explicitly.
func medianOfThreePivot[T cmp.Ordered](xs []T, lo, hi int, rng *rand.Rand) int {
	n := hi - lo
	a := lo + rng.Intn(n)
	b := lo + rng.Intn(n)
	c := lo + rng.Intn(n)
	// Median of xs[a], xs[b], xs[c] by index.
	if xs[a] > xs[b] {
		a, b = b, a
	}
	if xs[b] > xs[c] {
		b = c
		if xs[a] > xs[b] {
			b = a
		}
	}
	return b
}

// medianOfMediansPivot implements the BFPRT pivot rule on xs[lo:hi]: split
// into groups of five, take each group's median, and recursively select the
// median of those medians. The group medians are compacted into the prefix
// xs[lo:lo+numGroups] so the recursion operates in place; this reorders the
// range but partition3 immediately re-partitions it, preserving selection
// semantics. Returns the index of the chosen pivot.
func medianOfMediansPivot[T cmp.Ordered](xs []T, lo, hi int) int {
	n := hi - lo
	if n <= 5 {
		insertionSort(xs[lo:hi])
		return lo + n/2
	}
	numGroups := 0
	for g := lo; g < hi; g += 5 {
		end := g + 5
		if end > hi {
			end = hi
		}
		insertionSort(xs[g:end])
		median := g + (end-g)/2
		xs[lo+numGroups], xs[median] = xs[median], xs[lo+numGroups]
		numGroups++
	}
	// Recursively place the median of medians at its rank within the prefix.
	mid := lo + (numGroups-1)/2
	selectInPlaceDeterministic(xs, lo, lo+numGroups, mid)
	return mid
}

// selectInPlaceDeterministic is the recursive worker behind
// medianOfMediansPivot: it reorders xs[lo:hi) so xs[k] has rank k-lo within
// that range, using the deterministic pivot rule throughout — the
// algorithm of [ea72] as described in Section 2.1 of the paper, with
// O(hi−lo) worst-case time regardless of input order.
func selectInPlaceDeterministic[T cmp.Ordered](xs []T, lo, hi, k int) {
	for {
		if hi-lo <= smallCutoff {
			insertionSort(xs[lo:hi])
			return
		}
		pivot := medianOfMediansPivot(xs, lo, hi)
		lt, gt := partition3(xs, lo, hi, pivot)
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// partition3 performs a three-way (Dutch national flag) partition of
// xs[lo:hi) around the value at index pivot. On return, xs[lo:lt) < pivot
// value, xs[lt:gt) == pivot value, and xs[gt:hi) > pivot value. Three-way
// partitioning is essential for the paper's workloads, which contain n/10
// duplicate keys: a two-way partition degrades to quadratic time on heavy
// duplicates.
func partition3[T cmp.Ordered](xs []T, lo, hi, pivot int) (lt, gt int) {
	pv := xs[pivot]
	lt, gt = lo, hi
	i := lo
	for i < gt {
		switch {
		case xs[i] < pv:
			xs[i], xs[lt] = xs[lt], xs[i]
			lt++
			i++
		case xs[i] > pv:
			gt--
			xs[i], xs[gt] = xs[gt], xs[i]
		default:
			i++
		}
	}
	return lt, gt
}
