// Package core implements OPAQ — the one-pass deterministic quantile
// estimation algorithm of Alsabti, Ranka and Singh (VLDB 1997) — for
// disk-resident data.
//
// The algorithm has two phases (paper, Section 2):
//
//  1. Sample phase: the data is consumed as r runs of m elements. From each
//     run the s regular sample points — the elements of exact local ranks
//     m/s, 2m/s, …, m — are extracted, and the r sorted sample lists are
//     merged into one sorted list. The paper extracts them with an
//     O(m log s) multi-selection; selection.SampleRun instead radix-selects
//     runs of fixed-width numeric keys, descending only into the radix
//     buckets that hold a sample rank, which puts the same order
//     statistics at the same ranks in a few linear passes; Build's
//     workers and every StreamBuilder flush scatter its first two levels
//     through a run-sized scratch. All run memory is a loan from one pool,
//     runio's: readers read runs into it, Build gives each sampled run
//     back, and a StreamBuilder's partial run holds a buffer that grows
//     with its keys toward the run length. String runs keep the
//     multi-selection. Either way a run is left partitioned around its
//     samples, not sorted, and its extrema are read off the partitioned
//     run. Build merges the sample lists in scan order, contiguous ranges
//     of runs concurrently, so equal samples keep their scan order at
//     every worker count.
//  2. Quantile phase: for a quantile of rank ψ = ⌈φ·n⌉, two indices into
//     the sorted sample list give deterministic bounds e_l ≤ e_φ ≤ e_u with
//     at most n/s data elements between the true quantile and either bound
//     (Lemmas 1–3), independent of the data distribution.
//
// A Summary retains the sorted sample list, so additional quantiles cost
// O(1) each, arbitrary keys can be rank-bounded without another pass, and
// summaries over disjoint data can be merged for incremental maintenance
// (paper, Section 4).
package core

import (
	"errors"
	"fmt"
	"runtime"
)

// Sentinel errors returned (wrapped) by package core.
var (
	// ErrConfig indicates an invalid Config.
	ErrConfig = errors.New("core: invalid config")
	// ErrEmpty indicates an operation on a summary of zero elements.
	ErrEmpty = errors.New("core: empty dataset")
	// ErrPhi indicates a quantile fraction outside (0, 1].
	ErrPhi = errors.New("core: quantile fraction out of range")
	// ErrIncompatible indicates summaries that cannot be merged.
	ErrIncompatible = errors.New("core: incompatible summaries")
	// ErrNaN indicates a NaN key: NaN compares false with everything, so
	// it has no rank and would corrupt the extrema and the sample order.
	ErrNaN = errors.New("core: NaN key")
)

// Config fixes the two parameters of the sample phase. In the paper's
// notation, RunLen is m (the number of elements that fit in memory at
// once) and SampleSize is s (regular samples per run). The memory the
// algorithm needs is m + r·s elements (one run plus all sample lists); the
// accuracy guarantee is that at most n/s ≈ r·m/s elements separate a true
// quantile from either estimated bound.
type Config struct {
	// RunLen is m, the run length in elements. Must be positive and
	// divisible by SampleSize.
	RunLen int
	// SampleSize is s, the number of regular samples per run. Must be
	// positive. For estimating q quantiles with good bounds the paper
	// recommends s ≥ 2q.
	SampleSize int
	// Workers is the number of goroutines Build drains the scan with,
	// each sampling whole runs into its own StreamBuilder through a
	// run-sized scratch borrowed from the run pool, and merging one
	// contiguous range of the runs' sample lists after the scan. 0 (the
	// default) uses runtime.GOMAXPROCS(0). Above 1 the reader is also
	// prefetched that many runs ahead. The resulting Summary is
	// bit-identical for every setting — only wall-clock time and peak
	// memory (≈ 3·Workers runs: prefetched, being sampled, and one scratch
	// per worker) change. Must not be negative.
	Workers int
}

// Validate checks the configuration invariants.
func (c Config) Validate() error {
	if c.RunLen <= 0 {
		return fmt.Errorf("%w: RunLen must be positive, got %d", ErrConfig, c.RunLen)
	}
	if c.SampleSize <= 0 {
		return fmt.Errorf("%w: SampleSize must be positive, got %d", ErrConfig, c.SampleSize)
	}
	if c.SampleSize > c.RunLen {
		return fmt.Errorf("%w: SampleSize %d exceeds RunLen %d", ErrConfig, c.SampleSize, c.RunLen)
	}
	if c.RunLen%c.SampleSize != 0 {
		return fmt.Errorf("%w: SampleSize %d must divide RunLen %d", ErrConfig, c.SampleSize, c.RunLen)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: Workers must be non-negative, got %d", ErrConfig, c.Workers)
	}
	return nil
}

// EffectiveWorkers resolves the Workers policy (0 → GOMAXPROCS, minimum
// 1) — the single source of truth for every pass driven by this Config,
// including extsort's bucket-sort pass.
func (c Config) EffectiveWorkers() int {
	if c.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(c.Workers, 1)
}

// Step returns m/s, the number of data elements represented by each sample
// point (the "sub-run" size of the paper).
func (c Config) Step() int { return c.RunLen / c.SampleSize }
