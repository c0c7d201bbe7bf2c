package core

import (
	"cmp"
	"fmt"

	"opaq/internal/merge"
)

// SummaryParts are the raw ingredients of a Summary, exposed so that the
// parallel formulation (internal/parallel) can assemble the global summary
// after its distributed sample phase. The quantile phase then proceeds
// identically to the sequential algorithm with r·p total runs (paper,
// Section 3: "substituting rp instead of r").
type SummaryParts[T cmp.Ordered] struct {
	// Samples is the globally sorted sample list.
	Samples []T
	// Step is m/s, which must be identical on every processor.
	Step int64
	// Runs is the total number of runs across all processors.
	Runs int64
	// N is the total number of data elements.
	N int64
	// Leftover counts elements in ragged run tails not covered by samples.
	Leftover int64
	// Min and Max are the exact global extrema.
	Min, Max T
}

// NewSummary validates parts and assembles a Summary. It enforces the
// structural invariants the quantile-phase formulas rely on: a sorted
// sample list whose length, step, runs and leftover are consistent with N.
func NewSummary[T cmp.Ordered](parts SummaryParts[T]) (*Summary[T], error) {
	if parts.N < 0 || parts.Runs < 0 || parts.Leftover < 0 {
		return nil, fmt.Errorf("%w: negative counts in parts", ErrConfig)
	}
	if parts.N == 0 {
		return emptySummary[T](parts.Step), nil
	}
	if parts.Step <= 0 {
		return nil, fmt.Errorf("%w: step must be positive, got %d", ErrConfig, parts.Step)
	}
	if !merge.IsSorted(parts.Samples) {
		return nil, fmt.Errorf("%w: sample list not sorted", ErrConfig)
	}
	if covered := int64(len(parts.Samples))*parts.Step + parts.Leftover; covered != parts.N {
		return nil, fmt.Errorf("%w: samples·step + leftover = %d, but N = %d",
			ErrConfig, covered, parts.N)
	}
	if parts.Max < parts.Min {
		return nil, fmt.Errorf("%w: max %v < min %v", ErrConfig, parts.Max, parts.Min)
	}
	return &Summary[T]{
		samples:  parts.Samples,
		step:     parts.Step,
		runs:     parts.Runs,
		n:        parts.N,
		leftover: parts.Leftover,
		min:      parts.Min,
		max:      parts.Max,
	}, nil
}

// AssembleShards combines the per-shard outputs of a distributed sample
// phase into the global Summary: locals carries each shard's bookkeeping
// (counts, extrema, step) and globalSamples is the globally merged sorted
// sample list. The aggregation is the paper's Section 3 quantile phase
// setup — the global summary behaves exactly like a sequential one with
// r·p total runs. The simulated machine (parallel.Run) calls it after its
// distributed global merge; in one process, MergeAll over the shard
// summaries computes the same Summary.
//
// globalSamples may carry trailing padding introduced by the bitonic
// network (pads equal the globally largest sample, so they sort to the
// tail); AssembleShards trims the list to the exact expected count,
// Σ len(locals[i].Samples), and rejects a merge that lost samples.
func AssembleShards[T cmp.Ordered](locals []SummaryParts[T], globalSamples []T) (*Summary[T], error) {
	if len(locals) == 0 {
		return nil, fmt.Errorf("%w: no shards to assemble", ErrConfig)
	}
	gp := SummaryParts[T]{Step: locals[0].Step}
	expected := 0
	first := true
	for i, lp := range locals {
		if lp.Step != gp.Step {
			return nil, fmt.Errorf("%w: shard %d step %d != shard 0 step %d",
				ErrIncompatible, i, lp.Step, gp.Step)
		}
		expected += len(lp.Samples)
		gp.Runs += lp.Runs
		gp.N += lp.N
		gp.Leftover += lp.Leftover
		if lp.N == 0 {
			continue
		}
		if first {
			gp.Min, gp.Max = lp.Min, lp.Max
			first = false
		} else {
			gp.Min = min(gp.Min, lp.Min)
			gp.Max = max(gp.Max, lp.Max)
		}
	}
	if len(globalSamples) < expected {
		return nil, fmt.Errorf("%w: global merge lost samples: %d < %d",
			ErrIncompatible, len(globalSamples), expected)
	}
	gp.Samples = globalSamples[:expected]
	sum, err := NewSummary(gp)
	if err != nil {
		return nil, fmt.Errorf("core: assembling global summary: %w", err)
	}
	return sum, nil
}

// Parts decomposes a Summary; inverse of NewSummary.
func (s *Summary[T]) Parts() SummaryParts[T] {
	return SummaryParts[T]{
		Samples:  s.samples,
		Step:     s.step,
		Runs:     s.runs,
		N:        s.n,
		Leftover: s.leftover,
		Min:      s.min,
		Max:      s.max,
	}
}
