// Package datagen produces the synthetic key datasets of the paper's
// evaluation (Section 2.4): uniform and Zipf-distributed 64-bit keys with a
// forced duplicate fraction of n/10, plus distributions that widen the test
// matrix beyond the paper: sorted, reverse-sorted, normal, and self-similar
// (80/20) keys.
//
// All generators are deterministic given a seed, so every experiment
// cmd/benchtab runs is reproducible bit-for-bit. Generators are streaming —
// they emit one key at a time — so datasets larger than memory can be
// written run-by-run through runio.WriteFileFunc.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Generator is a deterministic stream of int64 keys.
type Generator interface {
	// Next returns the next key in the stream.
	Next() int64
	// Name identifies the distribution for reports and error messages.
	Name() string
}

// Generate materializes the next n keys from g.
func Generate(g Generator, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Uniform draws keys uniformly from [0, Max).
type Uniform struct {
	rng *rand.Rand
	max int64
}

// NewUniform returns a uniform generator over [0, max) seeded with seed.
func NewUniform(seed, max int64) *Uniform {
	if max <= 0 {
		max = 1 << 62
	}
	return &Uniform{rng: rand.New(rand.NewSource(seed)), max: max}
}

// Next implements Generator.
func (u *Uniform) Next() int64 { return u.rng.Int63n(u.max) }

// Name implements Generator.
func (u *Uniform) Name() string { return "uniform" }

// Zipf draws keys from a Zipf distribution over a fixed universe of
// distinct values using the paper's parameterisation: parameter 1 is the
// uniform distribution, and skew increases as the parameter decreases
// toward 0 (Section 2.4). Internally the probability of the i-th most
// popular value is proportional to 1/i^θ with θ = 1 − parameter, so
// parameter 0 is the classic harmonic Zipf. The paper uses parameter 0.86.
//
// Popular values are scattered across the key domain by a Weyl sequence so
// that skew in frequency does not correlate with position in key order —
// matching how real skewed attributes behave and keeping the quantile
// estimation problem honest.
type Zipf struct {
	rng *rand.Rand
	cdf []float64 // cumulative probability by popularity rank
	val []int64   // popularity rank -> key value
}

// DefaultZipfParam is the skew parameter used throughout the paper's
// evaluation.
const DefaultZipfParam = 0.86

// NewZipf builds a Zipf generator with the paper's parameterisation over a
// universe of distinct values. distinct must be positive; param must lie in
// [0, 1].
func NewZipf(seed int64, distinct int, param float64) (*Zipf, error) {
	if distinct <= 0 {
		return nil, fmt.Errorf("datagen: Zipf universe must be positive, got %d", distinct)
	}
	if param < 0 || param > 1 {
		return nil, fmt.Errorf("datagen: Zipf parameter must be in [0,1], got %g", param)
	}
	theta := 1 - param
	cdf := make([]float64, distinct)
	sum := 0.0
	for i := 0; i < distinct; i++ {
		sum += math.Pow(float64(i+1), -theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	// Weyl sequence: rank i maps to i*φ⁻¹ mod 2⁶², spreading popular keys
	// uniformly over the domain.
	val := make([]int64, distinct)
	const weyl = 0x61c8864680b583eb // 2⁶⁴/φ, odd
	for i := range val {
		val[i] = int64(uint64(i+1)*weyl) & (1<<62 - 1)
	}
	return &Zipf{rng: rand.New(rand.NewSource(seed)), cdf: cdf, val: val}, nil
}

// Next implements Generator via inverse-CDF sampling.
func (z *Zipf) Next() int64 {
	u := z.rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.val) {
		i = len(z.val) - 1
	}
	return z.val[i]
}

// Name implements Generator.
func (z *Zipf) Name() string { return "zipf" }

// Sorted emits 0, step, 2·step, …: fully sorted input, the best case for
// naive samplers and a regression guard for order-sensitive bugs.
type Sorted struct {
	next int64
	step int64
}

// NewSorted returns a sorted generator with the given step (≥1).
func NewSorted(step int64) *Sorted {
	if step < 1 {
		step = 1
	}
	return &Sorted{step: step}
}

// Next implements Generator.
func (s *Sorted) Next() int64 { v := s.next; s.next += s.step; return v }

// Name implements Generator.
func (s *Sorted) Name() string { return "sorted" }

// Reverse emits start, start−step, …: reverse-sorted input.
type Reverse struct {
	next int64
	step int64
}

// NewReverse returns a reverse-sorted generator starting at start.
func NewReverse(start, step int64) *Reverse {
	if step < 1 {
		step = 1
	}
	return &Reverse{next: start, step: step}
}

// Next implements Generator.
func (r *Reverse) Next() int64 { v := r.next; r.next -= r.step; return v }

// Name implements Generator.
func (r *Reverse) Name() string { return "reverse" }

// Normal draws keys from a rounded Gaussian.
type Normal struct {
	rng    *rand.Rand
	mean   float64
	stddev float64
}

// NewNormal returns a Gaussian key generator.
func NewNormal(seed int64, mean, stddev float64) *Normal {
	return &Normal{rng: rand.New(rand.NewSource(seed)), mean: mean, stddev: stddev}
}

// Next implements Generator.
func (n *Normal) Next() int64 { return int64(n.rng.NormFloat64()*n.stddev + n.mean) }

// Name implements Generator.
func (n *Normal) Name() string { return "normal" }

// WithDuplicates wraps a generator so that, in expectation, the given
// fraction of emitted keys are duplicates of earlier keys. The paper fixes
// this fraction at 1/10 for every dataset ("the number of duplicates for
// each data set of size n is set to n/10"). A bounded reservoir of
// previously emitted keys supplies the duplicates, so the wrapper streams
// in O(1) memory.
type WithDuplicates struct {
	inner     Generator
	rng       *rand.Rand
	fraction  float64
	reservoir []int64
	seen      int64
}

// DuplicateFraction is the paper's duplicate rate, n/10.
const DuplicateFraction = 0.10

// NewWithDuplicates wraps inner, reusing an earlier key with probability
// fraction per emission.
func NewWithDuplicates(seed int64, inner Generator, fraction float64) (*WithDuplicates, error) {
	if fraction < 0 || fraction >= 1 {
		return nil, fmt.Errorf("datagen: duplicate fraction must be in [0,1), got %g", fraction)
	}
	return &WithDuplicates{
		inner:     inner,
		rng:       rand.New(rand.NewSource(seed)),
		fraction:  fraction,
		reservoir: make([]int64, 0, 4096),
	}, nil
}

// Next implements Generator.
func (w *WithDuplicates) Next() int64 {
	if len(w.reservoir) > 0 && w.rng.Float64() < w.fraction {
		return w.reservoir[w.rng.Intn(len(w.reservoir))]
	}
	v := w.inner.Next()
	w.seen++
	if len(w.reservoir) < cap(w.reservoir) {
		w.reservoir = append(w.reservoir, v)
	} else {
		// Reservoir sampling keeps the duplicate pool representative.
		if j := w.rng.Int63n(w.seen); j < int64(cap(w.reservoir)) {
			w.reservoir[j] = v
		}
	}
	return v
}

// Name implements Generator.
func (w *WithDuplicates) Name() string { return w.inner.Name() + "+dups" }

// PaperDataset returns the paper's evaluation dataset of n keys:
// distribution dist ("uniform" or "zipf", Zipf parameter 0.86) with the
// n/10 duplicate fraction, deterministically seeded.
func PaperDataset(dist string, n int, seed int64) ([]int64, error) {
	g, err := PaperGenerator(dist, n, seed)
	if err != nil {
		return nil, err
	}
	return Generate(g, n), nil
}

// PaperGenerator returns the streaming generator behind PaperDataset.
func PaperGenerator(dist string, n int, seed int64) (Generator, error) {
	var inner Generator
	switch dist {
	case "uniform":
		inner = NewUniform(seed, 1<<62)
	case "zipf":
		distinct := n
		if distinct > 1_000_000 {
			distinct = 1_000_000
		}
		z, err := NewZipf(seed, distinct, DefaultZipfParam)
		if err != nil {
			return nil, err
		}
		inner = z
	default:
		return nil, fmt.Errorf("datagen: unknown distribution %q (want uniform or zipf)", dist)
	}
	return NewWithDuplicates(seed+1, inner, DuplicateFraction)
}

// SelfSimilar draws keys from the 80–20 self-similar distribution used in
// database synthetic workloads (Gray et al.): a fraction h of the mass
// falls in the first (1−h) fraction of the key range, recursively. h=0.5
// is uniform; h=0.8 is the classic "80–20 rule"; h→1 is extreme skew.
type SelfSimilar struct {
	rng *rand.Rand
	h   float64
	max int64
}

// NewSelfSimilar returns a self-similar generator over [0, max) with skew
// h in [0.5, 1).
func NewSelfSimilar(seed int64, max int64, h float64) (*SelfSimilar, error) {
	if h < 0.5 || h >= 1 {
		return nil, fmt.Errorf("datagen: self-similar skew must be in [0.5, 1), got %g", h)
	}
	if max <= 0 {
		return nil, fmt.Errorf("datagen: self-similar max must be positive, got %d", max)
	}
	return &SelfSimilar{rng: rand.New(rand.NewSource(seed)), h: h, max: max}, nil
}

// Next implements Generator via the standard log-ratio transform.
func (s *SelfSimilar) Next() int64 {
	u := s.rng.Float64()
	if u <= 0 {
		return 0
	}
	// key = max · u^(log(1−h)/log h): P(key ≤ (1−h)·max) = h, the 80–20
	// rule at h = 0.8; h = 0.5 reduces to the identity (uniform).
	v := int64(float64(s.max) * math.Pow(u, math.Log(1-s.h)/math.Log(s.h)))
	if v >= s.max {
		v = s.max - 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Name implements Generator.
func (s *SelfSimilar) Name() string { return "selfsimilar" }
