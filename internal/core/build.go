package core

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"

	"opaq/internal/runio"
	"opaq/internal/selection"
)

// Build executes OPAQ's sample phase over one sequential scan of rr,
// returning the Summary used by the quantile phase. This is the algorithm
// of Figure 1 in the paper: for each run, extract the s regular sample
// points, then merge the per-run sorted sample lists. selection.SampleRun
// extracts them: runs of fixed-width numeric keys are radix-selected,
// sorting only the radix buckets that hold a sample rank, and string runs
// keep the paper's O(m log s) multi-selection. Runs are reordered in place
// and left partitioned around their samples. A NaN key fails the build
// with ErrNaN.
//
// The scan is drained by cfg.EffectiveWorkers() goroutines, each folding
// whole runs into a private StreamBuilder. Each worker borrows one
// run-sized scratch buffer from the run pool (runio.GetRun) when it takes
// its first run, and gives it back when it stops; the scratch lets the
// radix selection scatter its first two levels out of place instead of
// permuting in place. Workers take runs from rr one at a time under a
// lock, which stops all reads at EOF or at the first error. A run belongs
// to its consumer, and nothing retains a sampled one, since its samples
// are a fresh list, so its worker gives it to the same pool when its
// capacity is the run length, and the file and memory readers read later
// runs into it. A scan thus allocates the few runs in flight, not one per
// run, whatever wraps its reader, and a build after a build, or after
// streaming ingest, reuses the same memory. With more than one worker rr
// is read ahead by runio.Prefetch (unless it already prefetches), which
// overlaps I/O with the sampling — the paper's Section 4 future work ("we
// can significantly reduce the total execution time by overlapping the
// I/O and the computation").
//
// After the scan, every run's sample list is merged in scan order:
// contiguous ranges of runs are merged concurrently, one per worker, and
// the partials are then merged (see mergeLists). A run's samples are
// exact order statistics of that run alone (a string run seeds its RNG
// from its scan index), and equal samples — −0 and +0 included — keep
// their scan order, as a StreamBuilder over the same keys keeps them, so
// the Summary is bit-identical for every worker count.
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
	workers := cfg.EffectiveWorkers()
	if _, ok := rr.(*runio.PrefetchReader[T]); !ok && workers > 1 {
		rr = runio.Prefetch(rr, workers)
	}
	// Build consumes the scan: on every exit — EOF, read or sampling
	// failure — the reader's resources are released (Close is idempotent,
	// so the EOF self-close is fine).
	defer rr.Close()

	var (
		mu       sync.Mutex
		next     int64 // scan index of the next non-empty run
		stopped  bool  // EOF or an error: no further reads
		firstErr error
	)
	stop := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		if firstErr == nil {
			firstErr = err
		}
	}
	// take hands out the scan's next non-empty run with its scan index.
	take := func() ([]T, int64, bool) {
		mu.Lock()
		defer mu.Unlock()
		for !stopped {
			run, err := rr.NextRun()
			switch {
			case err == io.EOF:
				stopped = true
			case err != nil:
				stopped, firstErr = true, fmt.Errorf("core: sample phase read: %w", err)
			case len(run) > 0:
				next++
				return run, next - 1, true
			}
		}
		return nil, 0, false
	}
	builders := make([]*StreamBuilder[T], workers)
	scans := make([][]int64, workers) // the scan index of each of builders[w].lists
	var wg sync.WaitGroup
	for w := range builders {
		b := &StreamBuilder[T]{cfg: cfg}
		builders[w] = b
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []T // lent at the worker's first run
			defer func() { runio.PutRun(scratch) }()
			for {
				run, idx, ok := take()
				if !ok {
					return
				}
				if scratch == nil {
					scratch = runio.GetRun[T](cfg.RunLen, cfg.RunLen)[:cfg.RunLen]
				}
				if err := b.addRun(run, idx, scratch); err != nil {
					stop(err)
					return
				}
				if cap(run) == cfg.RunLen {
					runio.PutRun(run)
				}
				if len(b.lists) > len(scans[w]) {
					scans[w] = append(scans[w], idx)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// Fold every builder into the first, with the sample lists placed at
	// their runs' scan indices, and seal it across the workers.
	lists := make([][]T, next)
	acc := builders[0]
	for w, b := range builders {
		for i, l := range b.lists {
			lists[scans[w][i]] = l
		}
		if w > 0 && b.runs > 0 {
			acc.count(b.runs, b.runN, b.leftover, b.runMin, b.runMax)
		}
	}
	acc.lists = slices.DeleteFunc(lists, func(l []T) bool { return l == nil })
	return acc.seal(workers), nil
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
// inside the enclosure — fewer than 2·ErrorBound() values when keys are
// distinct, by Lemma 3 — which are then sorted (via selection, O(window))
// to extract the exact rank. The window is allocated at that size, capped
// at N, so it grows only when copies of e_l or e_u overfill it. Each
// scanned run goes back to the run pool, as in Build, so the pass
// allocates about one run besides the window.
func ExactQuantile[T cmp.Ordered](ds runio.Dataset[T], s *Summary[T], phi float64) (T, error) {
	var zero T
	b, err := s.Bounds(phi)
	if err != nil {
		return zero, err
	}
	m := int(min(int64(1<<16), max(s.step, 1024)))
	rr, err := ds.Runs(m)
	if err != nil {
		return zero, err
	}
	defer rr.Close()
	var below int64 // elements strictly below e_l
	window := make([]T, 0, min(2*s.ErrorBound(), s.n))
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
		if cap(run) == m {
			runio.PutRun(run)
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
