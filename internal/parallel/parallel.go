// Package parallel implements the parallel formulation of OPAQ (paper,
// Section 3) on the simulated machine of internal/simnet, and the real
// sharded build.
//
// Each of the p ranks owns n/p elements, runs the sequential sample phase
// locally (read runs, extract regular samples, merge the local sample
// lists), and then the p local sorted sample lists are merged into a
// globally sorted, block-distributed sample list by one of two algorithms:
//
//   - Bitonic merge: the bitonic sorting network over sorted blocks, with
//     compare-exchange replaced by merge-split. O((rs·(1+log p)·log p)·α +
//     (1+log p)·log p·(τ + μ·rs)) — the paper's Table 8, first row.
//   - Sample merge: parallel sorting by regular sampling without the
//     initial local sort (the lists are already sorted): pick p regular
//     samples per rank, gather, choose p−1 splitters, partition, all to
//     all, local multiway merge. The paper's Table 8, second row.
//
// The quantile phase is the sequential one with r·p total runs.
//
// Run executes this protocol on the simulated machine, whose cost model
// provides the execution-time results of Figures 3–6 and Tables 11–12.
// Real data still moves between the simulated processors, and the
// resulting bounds are bit-identical to a sequential OPAQ over the
// concatenated data (tests assert this). The merges exist because each
// list sits in another processor's memory; in one process they compute
// what one k-way merge does, so BuildSharded runs core.Build on each shard
// in its own goroutine and merges the shard summaries with core.MergeAll.
package parallel

import (
	"cmp"
	"fmt"
	"time"

	"opaq/internal/core"
	"opaq/internal/runio"
	"opaq/internal/simnet"
)

// MergeAlgo selects the global merge algorithm.
type MergeAlgo int

// The two global merge algorithms the paper evaluates (Figure 3).
const (
	// BitonicMerge is the bitonic network with merge-split; requires the
	// rank count to be a power of two.
	BitonicMerge MergeAlgo = iota
	// SampleMerge is PSRS-style splitter-based merging; any rank count.
	SampleMerge
)

// String names the algorithm for reports.
func (a MergeAlgo) String() string {
	switch a {
	case BitonicMerge:
		return "bitonic"
	case SampleMerge:
		return "sample"
	default:
		return fmt.Sprintf("MergeAlgo(%d)", int(a))
	}
}

// validMergeAlgo checks algo against the rank count (bitonic needs a power
// of two).
func validMergeAlgo(algo MergeAlgo, p int) error {
	if algo == BitonicMerge && p&(p-1) != 0 {
		return fmt.Errorf("%w: bitonic merge requires power-of-two ranks, got %d",
			core.ErrConfig, p)
	}
	if algo != BitonicMerge && algo != SampleMerge {
		return fmt.Errorf("%w: unknown merge algorithm %d", core.ErrConfig, int(algo))
	}
	return nil
}

// Config parameterizes a parallel OPAQ execution on the simulated machine.
type Config struct {
	// Core carries m (RunLen) and s (SampleSize) per the sequential phase.
	Core core.Config
	// Procs is p. BitonicMerge requires a power of two.
	Procs int
	// Merge selects the global merge algorithm.
	Merge MergeAlgo
	// Model is the two-level machine cost model.
	Model simnet.CostModel
	// Disk converts per-rank I/O accounting into simulated time.
	Disk runio.DiskModel
	// OverlapIO enables the paper's future-work optimization (Section 4):
	// reading the next run proceeds concurrently with sampling the current
	// one, so the I/O and sampling phases cost max(t_io, t_sampling)
	// instead of their sum. The real-concurrency analogue for sequential
	// scans is runio.Prefetch.
	OverlapIO bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if c.Procs < 1 {
		return fmt.Errorf("%w: Procs must be ≥ 1, got %d", core.ErrConfig, c.Procs)
	}
	return validMergeAlgo(c.Merge, c.Procs)
}

// PhaseTimes is the per-phase simulated time breakdown the paper reports in
// Table 12 (I/O, sampling, local merge, global merge).
type PhaseTimes struct {
	IO          time.Duration
	Sampling    time.Duration
	LocalMerge  time.Duration
	GlobalMerge time.Duration
	// Overlapped records whether I/O and sampling ran concurrently
	// (Config.OverlapIO); Total then charges max(IO, Sampling) for the
	// pair instead of their sum.
	Overlapped bool
}

// Total sums the phases, honoring I/O–sampling overlap.
func (pt PhaseTimes) Total() time.Duration {
	first := pt.IO + pt.Sampling
	if pt.Overlapped {
		first = maxDur(pt.IO, pt.Sampling)
	}
	return first + pt.LocalMerge + pt.GlobalMerge
}

// Result of a parallel OPAQ execution on the simulated machine.
type Result[T cmp.Ordered] struct {
	// Summary is the global summary; its bounds equal the sequential
	// algorithm's with r·p runs.
	Summary *core.Summary[T]
	// Phases is the per-phase breakdown, taking the maximum over ranks per
	// phase (the paper's convention: phases are separated by barriers).
	Phases PhaseTimes
	// PerProc is each rank's own breakdown.
	PerProc []PhaseTimes
	// TotalTime is the parallel execution time (max rank clock).
	TotalTime time.Duration
}

// Run executes parallel OPAQ over the per-rank datasets in data (data[i] is
// rank i's n/p local elements, conceptually resident on its local disk) on
// the simulated machine. The cost model counts message words as 8-byte
// elements regardless of T, so the timing tables are invariant under the
// element type.
func Run[T cmp.Ordered](data [][]T, cfg Config) (*Result[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(data) != cfg.Procs {
		return nil, fmt.Errorf("%w: %d data shards for %d processors", core.ErrConfig, len(data), cfg.Procs)
	}
	m, err := simnet.NewMachine(cfg.Procs, cfg.Model)
	if err != nil {
		return nil, err
	}
	p := cfg.Procs
	perProc := make([]PhaseTimes, p)
	localParts := make([]core.SummaryParts[T], p) // local sample phase output
	globalBlocks := make([][]T, p)                // distributed global sample list

	err = m.Run(func(pr *simnet.Proc) error {
		return runRank[T](pr, data[pr.ID()], cfg, perProc, localParts, globalBlocks)
	})
	if err != nil {
		return nil, err
	}

	// Assemble the global summary (the quantile phase proper is O(1) per
	// quantile and charged to no phase, matching the paper's accounting).
	var all []T
	for _, b := range globalBlocks {
		all = append(all, b...)
	}
	sum, err := core.AssembleShards(localParts, all)
	if err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}

	res := &Result[T]{
		Summary:   sum,
		PerProc:   perProc,
		TotalTime: m.MaxClock(),
	}
	res.Phases.Overlapped = cfg.OverlapIO
	for _, pt := range perProc {
		res.Phases.IO = maxDur(res.Phases.IO, pt.IO)
		res.Phases.Sampling = maxDur(res.Phases.Sampling, pt.Sampling)
		res.Phases.LocalMerge = maxDur(res.Phases.LocalMerge, pt.LocalMerge)
		res.Phases.GlobalMerge = maxDur(res.Phases.GlobalMerge, pt.GlobalMerge)
	}
	return res, nil
}

// runRank is the SPMD body of Run: one rank builds its local summary with
// core's sample phase on one CPU (one simulated processor), charges that
// phase's costs per the paper's Table 2, and then takes part in the global
// merge, whose messages the machine charges itself.
func runRank[T cmp.Ordered](pr *simnet.Proc, local []T, cfg Config,
	perProc []PhaseTimes, localParts []core.SummaryParts[T], globalBlocks [][]T) error {
	id := pr.ID()
	rankCfg := cfg.Core
	rankCfg.Workers = 1
	sum, err := core.BuildFromSlice(local, rankCfg)
	if err != nil {
		return fmt.Errorf("parallel: rank %d local build: %w", id, err)
	}
	localParts[id] = sum.Parts()

	// ---- Phase 1: I/O. The local shard is read once, run by run. Under
	// OverlapIO the charge is deferred and folded into max(I/O, sampling)
	// after the sampling phase. ----
	m := cfg.Core.RunLen
	runs := (len(local) + m - 1) / m
	ioTime := cfg.Disk.Time(runio.Stats{
		ReadOps:   int64(runs),
		BytesRead: int64(len(local)) * 8, // cost-model words are 8-byte elements
	})
	perProc[id].IO = ioTime
	perProc[id].Overlapped = cfg.OverlapIO
	if !cfg.OverlapIO {
		pr.Charge(ioTime)
	}

	// ---- Phase 2: sampling. Each run costs the paper's O(m·log s)
	// multi-selection (Table 2), whichever kernel core ran, so the
	// simulated times stay the paper's. ----
	step := cfg.Core.Step()
	sampledRuns := 0
	t0 := pr.Clock()
	for r := 0; r < runs; r++ {
		n := min(m, len(local)-r*m)
		if si := n / step; si > 0 {
			pr.Compute(int64(n) * int64(ceilLog2(si+1)))
			sampledRuns++
		}
	}
	perProc[id].Sampling = pr.Clock() - t0
	if cfg.OverlapIO && ioTime > perProc[id].Sampling {
		// I/O was the longer leg; the rank stalls for the excess.
		pr.Charge(ioTime - perProc[id].Sampling)
	}

	// ---- Phase 3: local merge of the sampled runs' lists. ----
	t0 = pr.Clock()
	localSamples := localParts[id].Samples
	pr.Compute(int64(len(localSamples)) * int64(ceilLog2(sampledRuns+1)))
	perProc[id].LocalMerge = pr.Clock() - t0

	// ---- Phase 4: global merge of the p sorted sample lists. ----
	if err := pr.Barrier(); err != nil {
		return err
	}
	t0 = pr.Clock()
	block, err := globalMerge(pr, cfg.Merge, localSamples)
	if err != nil {
		return err
	}
	if err := pr.Barrier(); err != nil {
		return err
	}
	perProc[id].GlobalMerge = pr.Clock() - t0
	globalBlocks[id] = block
	return nil
}
