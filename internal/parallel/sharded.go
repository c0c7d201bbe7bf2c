package parallel

import (
	"cmp"
	"errors"
	"fmt"
	"sync"

	"opaq/internal/core"
	"opaq/internal/runio"
)

// BuildSharded builds one Summary over the per-shard datasets: each shard
// runs core's full sample phase in its own goroutine (cfg.Workers applies
// per shard, so a shard may be a disk-resident run file scanned with
// prefetch), and core.MergeAll merges the shard summaries in one k-way
// pass. A failed shard fails the build; the error joins every shard's
// failure.
//
// The resulting Summary is bit-identical to a sequential Build over the
// concatenation of the shards whenever every shard but the last holds a
// whole number of runs (len % cfg.RunLen == 0) — run boundaries then fall
// in the same places, and every aggregate (sorted sample multiset, counts,
// extrema) is order-independent. Tests enforce this across shard counts
// and against the simulated machine (Run). Ragged interior shards still
// yield a valid summary (short runs contribute proportionally fewer
// samples and widen ErrorBound), just not a bit-identical one.
func BuildSharded[T cmp.Ordered](datasets []runio.Dataset[T], cfg core.Config) (*core.Summary[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(datasets) == 0 {
		return nil, fmt.Errorf("%w: need at least one shard dataset", core.ErrConfig)
	}
	sums := make([]*core.Summary[T], len(datasets))
	errs := make([]error, len(datasets))
	var wg sync.WaitGroup
	for i, ds := range datasets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i], errs[i] = core.BuildFromDataset(ds, cfg)
			if errs[i] != nil {
				errs[i] = fmt.Errorf("parallel: shard %d local build: %w", i, errs[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return core.MergeAll(sums)
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
