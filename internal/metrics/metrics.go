// Package metrics implements the three relative error rates the paper uses
// to evaluate quantile estimates (Section 2.4, Figure 2):
//
//   - RER_A ("A for Almaden", from [AS95]): per quantile, the number of
//     elements inside the estimated [e_l, e_u] enclosure minus the
//     duplicates of the true quantile value, as a percentage of n.
//   - RER_L ("L for Load balancing"): the worst relative deviation of the
//     spacing between successive estimated bounds from the spacing between
//     successive true quantiles.
//   - RER_N ("N for Normalized"): the worst distance (in elements) between
//     a true quantile and its bound, normalized by n/q rather than n.
//
// All measures are computed against a sorted copy of the data (the exact
// oracle). Counting is rank-based via binary search, so duplicates are
// handled exactly.
package metrics

import (
	"cmp"
	"fmt"
	"sort"
)

// Enclosure is one quantile's estimated lower/upper bound pair, as produced
// by any of the estimators under evaluation.
type Enclosure[T cmp.Ordered] struct {
	Phi          float64
	Lower, Upper T
}

// Oracle answers exact rank and quantile queries on a sorted dataset.
type Oracle[T cmp.Ordered] struct {
	sorted []T
}

// NewOracle sorts a copy of xs and returns the oracle over it.
func NewOracle[T cmp.Ordered](xs []T) *Oracle[T] {
	s := make([]T, len(xs))
	copy(s, xs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return &Oracle[T]{sorted: s}
}

// N returns the dataset size.
func (o *Oracle[T]) N() int { return len(o.sorted) }

// Quantile returns the exact φ-quantile: the element of rank ⌈φ·n⌉.
func (o *Oracle[T]) Quantile(phi float64) T {
	n := len(o.sorted)
	rank := int(phi * float64(n))
	if float64(rank) < phi*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return o.sorted[rank-1]
}

// RankLE returns the number of elements ≤ x.
func (o *Oracle[T]) RankLE(x T) int {
	return sort.Search(len(o.sorted), func(i int) bool { return o.sorted[i] > x })
}

// RankLT returns the number of elements < x.
func (o *Oracle[T]) RankLT(x T) int {
	return sort.Search(len(o.sorted), func(i int) bool { return o.sorted[i] >= x })
}

// CountIn returns the number of elements in the closed interval [a, b].
func (o *Oracle[T]) CountIn(a, b T) int {
	if b < a {
		return 0
	}
	return o.RankLE(b) - o.RankLT(a)
}

// CountEq returns the number of elements equal to x.
func (o *Oracle[T]) CountEq(x T) int { return o.RankLE(x) - o.RankLT(x) }

// RERA computes the paper's RER_A for each enclosure: the element count of
// [Lower, Upper] minus the duplicates of the exact quantile value, as a
// percentage of n. The paper's Tables 3, 5, 7 and 9 report this measure
// per dectile.
func RERA[T cmp.Ordered](o *Oracle[T], encl []Enclosure[T]) ([]float64, error) {
	if o.N() == 0 {
		return nil, fmt.Errorf("metrics: empty oracle")
	}
	out := make([]float64, len(encl))
	for i, e := range encl {
		if e.Upper < e.Lower {
			return nil, fmt.Errorf("metrics: enclosure %d inverted: [%v, %v]", i, e.Lower, e.Upper)
		}
		ne := o.CountIn(e.Lower, e.Upper)
		nt := o.CountEq(o.Quantile(e.Phi))
		v := float64(ne-nt) / float64(o.N()) * 100
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out, nil
}

// RERL computes the paper's RER_L over a full set of q−1 equally spaced
// enclosures: the maximum over i of the relative deviation of the spacing
// between successive estimated lower (and upper) bounds from the true
// spacing N_i between successive quantiles. Reported in Tables 4, 6, 10.
func RERL[T cmp.Ordered](o *Oracle[T], encl []Enclosure[T]) (float64, error) {
	if len(encl) < 2 {
		return 0, fmt.Errorf("metrics: RER_L needs at least two quantiles, got %d", len(encl))
	}
	q := len(encl) + 1
	worst := 0.0
	for i := 0; i+1 < len(encl); i++ {
		truthA := o.Quantile(float64(i+1) / float64(q))
		truthB := o.Quantile(float64(i+2) / float64(q))
		ni := o.RankLT(truthB) - o.RankLT(truthA)
		if ni == 0 {
			// Degenerate spacing (massive duplicates); the paper's measure
			// divides by N_i, so skip the undefined term.
			continue
		}
		nli := o.RankLT(encl[i+1].Lower) - o.RankLT(encl[i].Lower)
		nui := o.RankLT(encl[i+1].Upper) - o.RankLT(encl[i].Upper)
		dl := absf(float64(ni-nli)) / float64(ni)
		du := absf(float64(ni-nui)) / float64(ni)
		worst = maxf(worst, maxf(dl, du))
	}
	return worst * 100, nil
}

// RERN computes the paper's RER_N over q−1 equally spaced enclosures: the
// maximum over i of the element distance between the true quantile and its
// lower (and upper) bound, normalized by n/q. Reported in Tables 4, 6, 10.
func RERN[T cmp.Ordered](o *Oracle[T], encl []Enclosure[T]) (float64, error) {
	if len(encl) == 0 {
		return 0, fmt.Errorf("metrics: RER_N needs at least one quantile")
	}
	q := len(encl) + 1
	perQ := float64(o.N()) / float64(q)
	worst := 0.0
	for i, e := range encl {
		truth := o.Quantile(float64(i+1) / float64(q))
		// DL_i: elements strictly between the lower bound and the truth.
		dl := float64(o.RankLT(truth) - o.RankLE(e.Lower))
		du := float64(o.RankLT(e.Upper) - o.RankLE(truth))
		worst = maxf(worst, maxf(maxf(dl, 0), maxf(du, 0))/perQ)
	}
	return worst * 100, nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
