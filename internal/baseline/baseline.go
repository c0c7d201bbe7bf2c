// Package baseline implements the competing quantile estimators the paper
// compares OPAQ against (Section 1 and Table 7):
//
//   - Reservoir: random sampling ([Coc77] in the paper, Vitter's
//     Algorithm R) — sort a uniform sample, read quantiles off it.
//     Probabilistic accuracy only.
//   - AgrawalSwami: the one-pass adaptive-interval algorithm of [AS95].
//     Maintains a bounded equi-depth histogram whose bucket boundaries are
//     adjusted on the fly; no a-priori knowledge of the distribution, no
//     deterministic error bound (the paper's stated limitation of [AS95]).
//
// These are the two estimators the reproduced Table 7 drives. The paper
// also cites P² ([RC85]) among prior work without error bounds, but its
// tables never run it, so it is not reimplemented here.
//
// All estimators consume a stream of int64 keys (the paper's evaluation
// uses integer keys) and implement the common Estimator interface, so the
// Table 7 harness can drive them interchangeably under an equal memory
// budget.
package baseline

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// ErrNoData is returned when a quantile is requested before any input.
var ErrNoData = errors.New("baseline: no data observed")

// Estimator is a one-pass streaming quantile estimator.
type Estimator interface {
	// Name identifies the estimator in reports.
	Name() string
	// Add observes one element of the stream.
	Add(x int64)
	// Quantile estimates the φ-quantile of everything observed so far.
	Quantile(phi float64) (int64, error)
	// MemoryElems reports the estimator's element-sized memory footprint,
	// used to run equal-memory comparisons (Table 7 gives every algorithm
	// memory equivalent to 3000 sample points).
	MemoryElems() int
}

// Reservoir is uniform random sampling without replacement over a stream
// (Vitter's Algorithm R). Quantiles are read off the sorted reservoir.
type Reservoir struct {
	k    int
	seen int64
	rng  *rand.Rand
	buf  []int64
}

// NewReservoir creates a reservoir of k sample slots.
func NewReservoir(k int, seed int64) (*Reservoir, error) {
	if k <= 0 {
		return nil, fmt.Errorf("baseline: reservoir size must be positive, got %d", k)
	}
	return &Reservoir{k: k, rng: rand.New(rand.NewSource(seed)), buf: make([]int64, 0, k)}, nil
}

// Name implements Estimator.
func (r *Reservoir) Name() string { return "random-sample" }

// Add implements Estimator.
func (r *Reservoir) Add(x int64) {
	r.seen++
	if len(r.buf) < r.k {
		r.buf = append(r.buf, x)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.k) {
		r.buf[j] = x
	}
}

// Quantile implements Estimator.
func (r *Reservoir) Quantile(phi float64) (int64, error) {
	if len(r.buf) == 0 {
		return 0, ErrNoData
	}
	if !(phi > 0 && phi <= 1) { // positive phrasing also rejects NaN
		return 0, fmt.Errorf("baseline: phi=%g out of (0,1]", phi)
	}
	s := append([]int64(nil), r.buf...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(phi * float64(len(s)))
	if float64(rank) < phi*float64(len(s)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], nil
}

// MemoryElems implements Estimator.
func (r *Reservoir) MemoryElems() int { return r.k }
