package opaq

import (
	"cmp"

	"opaq/internal/parallel"
	"opaq/internal/runio"
	"opaq/internal/simnet"
)

// ParallelConfig parameterizes a parallel OPAQ execution on the simulated
// message-passing machine; see parallel.Config.
type ParallelConfig = parallel.Config

// ParallelResult is a parallel execution's summary plus its simulated
// per-phase time breakdown; see parallel.Result.
type ParallelResult[T cmp.Ordered] = parallel.Result[T]

// PhaseTimes is the per-phase simulated time breakdown; see
// parallel.PhaseTimes.
type PhaseTimes = parallel.PhaseTimes

// MergeAlgo selects the simulated machine's global sample-merge
// algorithm (ParallelConfig.Merge); see parallel.MergeAlgo.
type MergeAlgo = parallel.MergeAlgo

// The two global merge algorithms of the paper's Section 3.
const (
	// BitonicMerge is the bitonic network with merge-split (power-of-two
	// processor counts).
	BitonicMerge = parallel.BitonicMerge
	// SampleMerge is splitter-based merging (any processor count).
	SampleMerge = parallel.SampleMerge
)

// CostModel is the two-level machine model (α compute, τ startup, μ per
// word); see simnet.CostModel.
type CostModel = simnet.CostModel

// DiskModel converts I/O operation counts into simulated time; see
// runio.DiskModel.
type DiskModel = runio.DiskModel

// DefaultCostModel returns SP-2-flavoured machine constants calibrated so
// the paper's phase fractions (Tables 11–12) reproduce.
func DefaultCostModel() CostModel { return simnet.DefaultCostModel() }

// DefaultDiskModel returns the matching per-node disk model.
func DefaultDiskModel() DiskModel { return runio.DefaultDiskModel() }

// ParallelRun executes parallel OPAQ over per-rank data shards on the
// simulated machine (the paper's Section 3 evaluation vehicle). The
// returned summary's bounds are bit-identical to the sequential
// algorithm's over the concatenated data; the result also carries the
// simulated execution time and its per-phase breakdown. For a real
// (wall-clock) sharded build, use BuildSharded.
func ParallelRun[T cmp.Ordered](shards [][]T, cfg ParallelConfig) (*ParallelResult[T], error) {
	return parallel.Run(shards, cfg)
}
