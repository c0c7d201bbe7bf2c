package parallel

import (
	"cmp"
	"fmt"

	"opaq/internal/core"
	"opaq/internal/runio"
)

// ShardOptions configures a sharded build.
type ShardOptions struct {
	// Shards is the engine's rank count. 0 means one rank per dataset;
	// any other value must equal len(datasets).
	Shards int
	// Merge selects the global sample-merge algorithm. BitonicMerge
	// requires a power-of-two shard count; SampleMerge (the zero value)
	// accepts any.
	Merge MergeAlgo
}

// BuildSharded runs the sample phase over the per-shard datasets
// concurrently — one engine rank per dataset on the real in-process
// transport — and merges the per-shard sample lists into one global
// Summary with the configured global-merge algorithm. Each rank's local
// phase is the full sequential/concurrent pipeline of internal/core
// (cfg.Workers applies per shard), so a shard may itself be a disk-resident
// run file scanned with prefetch.
//
// The resulting Summary is bit-identical to a sequential Build over the
// concatenation of the shards whenever every shard but the last holds a
// whole number of runs (len % cfg.RunLen == 0) — run boundaries then fall
// in the same places, and every aggregate (sorted sample multiset, counts,
// extrema) is order-independent. Tests enforce this across shard counts,
// merge algorithms and the in-process and simulated transports. Ragged
// interior shards still yield a valid summary (short runs contribute
// proportionally fewer samples and widen ErrorBound), just not a
// bit-identical one.
func BuildSharded[T cmp.Ordered](datasets []runio.Dataset[T], cfg core.Config, opts ShardOptions) (*core.Summary[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := opts.Shards
	if p == 0 {
		p = len(datasets)
	}
	if p != len(datasets) {
		return nil, fmt.Errorf("%w: %d datasets for %d shards", core.ErrConfig, len(datasets), p)
	}
	if p < 1 {
		return nil, fmt.Errorf("%w: need at least one shard dataset", core.ErrConfig)
	}
	if err := validMergeAlgo(opts.Merge, p); err != nil {
		return nil, err
	}
	m, err := newRealMachine(p)
	if err != nil {
		return nil, err
	}
	localParts := make([]core.SummaryParts[T], p)
	globalBlocks := make([][]T, p)
	err = m.Run(func(tr Transport) error {
		id := tr.ID()
		sum, err := core.BuildFromDataset(datasets[id], cfg)
		if err != nil {
			return fmt.Errorf("parallel: shard %d local build: %w", id, err)
		}
		localParts[id] = sum.Parts()
		// The global merge needs every rank's local list finished; the
		// barrier is the phase boundary (as on the simulated machine).
		if err := tr.Barrier(); err != nil {
			return err
		}
		block, err := globalMerge(tr, opts.Merge, localParts[id].Samples)
		if err != nil {
			return err
		}
		globalBlocks[id] = block
		return nil
	})
	if err != nil {
		return nil, err
	}
	var all []T
	for _, b := range globalBlocks {
		all = append(all, b...)
	}
	sum, err := core.AssembleShards(localParts, all)
	if err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	return sum, nil
}

// ShardSlices cuts xs into at most shards contiguous run-aligned pieces:
// every piece but the last holds a whole number of runLen-element runs, so
// a sharded build over the pieces is bit-identical to a sequential build
// over xs (see BuildSharded). Runs are distributed as evenly as possible;
// when there are fewer runs than shards, trailing pieces are empty.
func ShardSlices[T any](xs []T, shards, runLen int) ([][]T, error) {
	ranges, err := runio.ShardRanges(int64(len(xs)), shards, runLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrConfig, err)
	}
	out := make([][]T, len(ranges))
	for i, r := range ranges {
		out[i] = xs[r[0]:r[1]]
	}
	return out, nil
}
