package core

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"opaq/internal/merge"
	"opaq/internal/runio"
	"opaq/internal/selection"
)

// Build executes OPAQ's sample phase over one sequential scan of rr,
// returning the Summary used by the quantile phase. This is the algorithm
// of Figure 1 in the paper: for each run, extract the s regular sample
// points, then merge the per-run sorted sample lists. selection.SampleRun
// extracts them: runs of fixed-width numeric keys are radix-sorted in
// place, and string runs keep the paper's O(m log s) multi-selection. Runs
// are reordered in place. A NaN key fails the build with ErrNaN.
//
// With cfg.Workers != 1 the scan runs as a staged pipeline — a prefetching
// producer reads runs ahead of a bounded pool of sampling workers — which
// overlaps I/O with computation and scales the per-run sampling across
// cores. This realizes the paper's Section 4 future work ("we can
// significantly reduce the total execution time by overlapping the I/O and
// the computation"). A run's samples are exact order statistics of that
// run alone (a string run seeds its RNG from the run index), so the
// resulting Summary is bit-identical for any worker count, including the
// sequential Workers == 1 path.
//
// Runs shorter than cfg.RunLen are handled exactly: a short run of length
// m' contributes ⌊m'·s/m⌋ sample points at the same sub-run spacing, and
// the uncovered remainder widens ErrorBound by its size. For inputs whose
// length is divisible by RunLen (the paper's assumption) the Lemma 1–3
// guarantees hold verbatim.
func Build[T cmp.Ordered](rr runio.RunReader[T], cfg Config) (*Summary[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rr.RunLen() != cfg.RunLen {
		return nil, fmt.Errorf("%w: reader run length %d != config RunLen %d",
			ErrConfig, rr.RunLen(), cfg.RunLen)
	}
	// Build consumes the scan: on every exit — EOF, config error, read or
	// sampling failure, pipeline cancellation — the reader's resources are
	// released (Close is idempotent, so the EOF self-close is fine).
	defer rr.Close()
	var (
		results []runStats[T]
		err     error
	)
	if workers := cfg.EffectiveWorkers(); workers <= 1 {
		results, err = collectSequential(rr, cfg)
	} else {
		results, err = collectConcurrent(rr, cfg, workers)
	}
	if err != nil {
		return nil, err
	}
	return assemble(results, cfg)
}

// runStats is one run's contribution to the summary: its sorted regular
// samples plus the bookkeeping Build aggregates across runs.
type runStats[T cmp.Ordered] struct {
	idx      int64 // 0-based index among non-empty runs, in scan order
	samples  []T
	n        int64
	leftover int64
	min, max T
}

// runSeed derives the selection RNG seed for the run with 0-based index
// idx, via one splitmix64 round so consecutive indices yield uncorrelated
// streams. Giving each run its own seed — rather than threading one RNG
// through the scan — keeps the randomness a multi-selected run sees
// independent of how many runs were processed before it, or by which
// worker.
func runSeed(idx int64) int64 {
	z := 0x9e3779b97f4a7c15 * (uint64(idx) + 1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// sampleRun performs the per-run work of the sample phase: an exact min/max
// scan that also rejects NaN, then the regular samples at ranks k·step−1.
// run must be non-empty and is reordered in place.
func sampleRun[T cmp.Ordered](run []T, idx int64, step int) (runStats[T], error) {
	rs := runStats[T]{idx: idx, n: int64(len(run)), min: run[0], max: run[0]}
	for i, v := range run {
		if v != v {
			return rs, fmt.Errorf("%w: element %d of run %d", ErrNaN, i, idx)
		}
		rs.min = min(rs.min, v)
		rs.max = max(rs.max, v)
	}
	si := len(run) / step // samples this run contributes
	rs.leftover = int64(len(run) - si*step)
	samples, err := selection.SampleRun(run, step, runSeed(idx))
	if err != nil {
		return rs, fmt.Errorf("core: sample phase select: %w", err)
	}
	rs.samples = samples
	return rs, nil
}

// collectSequential is the Workers == 1 path: one goroutine, no channels,
// runs sampled in scan order.
func collectSequential[T cmp.Ordered](rr runio.RunReader[T], cfg Config) ([]runStats[T], error) {
	var (
		out []runStats[T]
		idx int64
	)
	for {
		run, err := rr.NextRun()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("core: sample phase read: %w", err)
		}
		if len(run) == 0 {
			continue
		}
		rs, err := sampleRun(run, idx, cfg.Step())
		if err != nil {
			return nil, err
		}
		out = append(out, rs)
		idx++
	}
}

// collectConcurrent is the staged pipeline: a producer drains a prefetching
// reader and hands (index, run) pairs to `workers` sampling goroutines.
// Results arrive out of order and are re-sequenced by assemble. Peak memory
// is about (workers + prefetch depth + 1)·RunLen elements in flight, plus
// the sample lists.
func collectConcurrent[T cmp.Ordered](rr runio.RunReader[T], cfg Config, workers int) ([]runStats[T], error) {
	pf, alreadyPrefetching := any(rr).(*runio.PrefetchReader[T])
	if !alreadyPrefetching {
		pf = runio.Prefetch(rr, workers)
		defer pf.Close()
	}

	type job struct {
		idx int64
		run []T
	}
	type result struct {
		rs  runStats[T]
		err error
	}
	jobs := make(chan job, workers)
	results := make(chan result, workers)
	quit := make(chan struct{})
	var quitOnce sync.Once
	cancel := func() { quitOnce.Do(func() { close(quit) }) }

	// Producer: assign scan-order indices and feed the pool.
	var readErr error
	go func() {
		defer close(jobs)
		var idx int64
		for {
			run, err := pf.NextRun()
			if err == io.EOF {
				return
			}
			if err != nil {
				readErr = fmt.Errorf("core: sample phase read: %w", err)
				cancel()
				return
			}
			if len(run) == 0 {
				continue
			}
			select {
			case jobs <- job{idx: idx, run: run}:
				idx++
			case <-quit:
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				rs, err := sampleRun(j.run, j.idx, cfg.Step())
				select {
				case results <- result{rs: rs, err: err}:
				case <-quit:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var (
		out      []runStats[T]
		firstErr error
	)
	for r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			cancel()
			continue
		}
		if firstErr == nil {
			out = append(out, r.rs)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// The producer wrote readErr strictly before close(jobs), which
	// happens-before the workers exiting and results closing above.
	if readErr != nil {
		return nil, readErr
	}
	return out, nil
}

// assemble re-sequences per-run contributions into scan order and merges
// them into the final Summary. All aggregates are order-independent (sums,
// extrema, and a k-way merge of sorted lists), so the result is identical
// however the runs were scheduled.
func assemble[T cmp.Ordered](results []runStats[T], cfg Config) (*Summary[T], error) {
	step := cfg.Step()
	if len(results) == 0 {
		return emptySummary[T](int64(step)), nil
	}
	sort.Slice(results, func(i, j int) bool { return results[i].idx < results[j].idx })
	var (
		sampleLists [][]T
		n           int64
		leftover    int64
		minV, maxV  T
	)
	minV, maxV = results[0].min, results[0].max
	for _, rs := range results {
		n += rs.n
		leftover += rs.leftover
		minV = min(minV, rs.min)
		maxV = max(maxV, rs.max)
		if rs.samples != nil {
			sampleLists = append(sampleLists, rs.samples)
		}
	}
	return &Summary[T]{
		samples:  merge.KWay(sampleLists),
		step:     int64(step),
		runs:     int64(len(results)),
		n:        n,
		leftover: leftover,
		min:      minV,
		max:      maxV,
	}, nil
}

// BuildFromDataset is Build over a fresh scan of ds with runs of
// cfg.RunLen elements — the whole-dataset entry point.
func BuildFromDataset[T cmp.Ordered](ds runio.Dataset[T], cfg Config) (*Summary[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rr, err := ds.Runs(cfg.RunLen)
	if err != nil {
		return nil, err
	}
	return Build(rr, cfg)
}

// BuildFromSlice is Build over an in-memory slice; the slice is not
// modified. Intended for tests, examples and small inputs. Modeled I/O
// stats charge the element type's real width, not a fixed 8 bytes.
func BuildFromSlice[T cmp.Ordered](xs []T, cfg Config) (*Summary[T], error) {
	return BuildFromDataset[T](runio.NewMemoryDataset(xs, runio.ElemSize[T]()), cfg)
}

// ExactQuantile performs the paper's Section 4 extension: one extra pass
// over the data turns the [e_l, e_u] enclosure into the exact quantile
// value. The pass counts the elements below e_l and retains only those
// inside the enclosure — at most 2n/s + slack values by Lemma 3 — which are
// then sorted (via selection, O(window)) to extract the exact rank.
func ExactQuantile[T cmp.Ordered](ds runio.Dataset[T], s *Summary[T], phi float64) (T, error) {
	var zero T
	b, err := s.Bounds(phi)
	if err != nil {
		return zero, err
	}
	rr, err := ds.Runs(int(min(int64(1<<16), max(s.step, 1024))))
	if err != nil {
		return zero, err
	}
	defer rr.Close()
	var below int64 // elements strictly below e_l
	window := make([]T, 0, 2*(s.n/max(int64(len(s.samples)), 1))+16)
	for {
		run, err := rr.NextRun()
		if err == io.EOF {
			break
		}
		if err != nil {
			return zero, fmt.Errorf("core: exact pass read: %w", err)
		}
		for _, v := range run {
			switch {
			case v < b.Lower:
				below++
			case v <= b.Upper:
				window = append(window, v)
			}
		}
	}
	idx := b.Rank - below - 1 // 0-based rank within the window
	if idx < 0 || idx >= int64(len(window)) {
		return zero, fmt.Errorf("core: exact pass window does not cover rank %d (below=%d, window=%d); summary inconsistent with dataset",
			b.Rank, below, len(window))
	}
	v, err := selection.Select(window, int(idx), rand.New(rand.NewSource(s.step)))
	if err != nil {
		return zero, err
	}
	return v, nil
}
