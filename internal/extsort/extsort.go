// Package extsort implements external sorting by quantile partitioning —
// one of the applications motivating the paper ("quantiles can be used for
// external sorting. Data can be partitioned using quantiles into a number
// of partitions such that each partition fits into main memory").
//
// The sort proceeds in three passes over run files:
//
//  1. OPAQ pass: build a quantile summary of the input (one pass, run
//     concurrently across cores when Options.Config.Workers allows).
//  2. Partition pass: choose k−1 splitters at the 1/k … (k−1)/k quantile
//     upper bounds and scatter the input into k bucket files (one pass).
//     Lemma 1 guarantees each bucket holds at most n/k + n/s elements plus
//     the duplicate mass on its boundary, so with s ≥ 2k a bucket sized
//     for 1.5·n/k elements always fits.
//  3. Merge pass: load each bucket, sort it in memory, and append to the
//     output (one pass). Buckets are in splitter order, so concatenation
//     is globally sorted. Bucket loads and sorts run concurrently across
//     Options.Config.Workers; the append stays in bucket order, so the
//     output bytes are identical for every worker count.
//
// Everything is generic over the element type: Sort[T] works for any
// cmp.Ordered key with a runio.Codec[T] describing its on-disk encoding,
// so the same machinery sorts int64, float64, uint64, … run files.
//
// The same partitioning doubles as the load-balancing primitive the paper
// cites ([DNS91]): Stats.BucketSizes and Stats.Imbalance expose how evenly
// the splitters cut the data.
package extsort

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"opaq/internal/core"
	"opaq/internal/runio"
)

// Options configures an external sort.
type Options struct {
	// Buckets is k, the number of partitions. Each bucket must fit in
	// memory; choose k ≥ n/M.
	Buckets int
	// Config is the OPAQ sample-phase configuration for the splitter pass;
	// its Workers field also sets the concurrency of that pass and of the
	// per-bucket sorts in the merge pass (0 = GOMAXPROCS, 1 = sequential).
	Config core.Config
	// TempDir holds the bucket files; defaults to the output directory.
	TempDir string
}

// Stats reports what a sort over elements of type T did.
type Stats[T cmp.Ordered] struct {
	// N is the number of elements sorted.
	N int64
	// BucketSizes is the actual population of each bucket after the
	// partition pass.
	BucketSizes []int64
	// MaxBucket is the largest bucket population.
	MaxBucket int64
	// Splitters are the k−1 partition boundaries used.
	Splitters []T
}

// Imbalance returns max bucket size over ideal (n/k); 1.0 is perfect.
func (s Stats[T]) Imbalance() float64 {
	if s.N == 0 || len(s.BucketSizes) == 0 {
		return 1
	}
	ideal := float64(s.N) / float64(len(s.BucketSizes))
	return float64(s.MaxBucket) / ideal
}

// Sort externally sorts the run file of T keys at inPath into outPath,
// using codec for both ends and for the intermediate bucket files.
//
// Floating-point inputs must be NaN-free: NaN compares false with
// everything, so no total order exists and neither the splitters nor the
// sorted-output invariant can hold. Sort fails with an error on the first
// NaN it scatters rather than writing a silently mis-sorted file.
func Sort[T cmp.Ordered](inPath, outPath string, codec runio.Codec[T], opts Options) (Stats[T], error) {
	var st Stats[T]
	if opts.Buckets < 1 {
		return st, fmt.Errorf("extsort: need ≥1 bucket, got %d", opts.Buckets)
	}
	if err := opts.Config.Validate(); err != nil {
		return st, err
	}
	ds, err := runio.OpenFile(inPath, codec)
	if err != nil {
		return st, err
	}
	st.N = ds.Count()
	if st.N == 0 {
		return st, runio.WriteFile(outPath, codec, nil)
	}

	// Pass 1: OPAQ summary.
	sum, err := core.BuildFromDataset[T](ds, opts.Config)
	if err != nil {
		return st, err
	}
	st.Splitters, err = splitters(sum, opts.Buckets)
	if err != nil {
		return st, err
	}

	// Pass 2: scatter into bucket files, with the next run prefetched while
	// the current one is scattered. Each scattered run goes back to the run
	// pool for a later run to be read into.
	k := opts.Buckets
	tempDir := opts.TempDir
	if tempDir == "" {
		tempDir = filepath.Dir(outPath)
	}
	writers := make([]*runio.Writer[T], k)
	paths := make([]string, k)
	for i := range writers {
		paths[i] = filepath.Join(tempDir, fmt.Sprintf("bucket-%04d.run", i))
		w, err := runio.NewWriter(paths[i], codec)
		if err != nil {
			return st, err
		}
		writers[i] = w
	}
	cleanup := func() {
		for _, p := range paths {
			os.Remove(p)
		}
	}
	defer cleanup()

	rr, err := ds.Runs(opts.Config.RunLen)
	if err != nil {
		return st, err
	}
	pf := runio.Prefetch(rr, 1)
	defer pf.Close()
	st.BucketSizes = make([]int64, k)
	batches := make([][]T, k) // one run's keys per bucket, appended per run
	var scattered int64
	for {
		run, err := pf.NextRun()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, err
		}
		for i, v := range run {
			if v != v { // NaN: unordered, see doc comment
				return st, fmt.Errorf("extsort: input element %d is NaN; NaN keys have no total order", scattered+int64(i))
			}
			b := searchSplitters(st.Splitters, v) // first splitter ≥ v
			batches[b] = append(batches[b], v)
		}
		scattered += int64(len(run))
		if cap(run) == opts.Config.RunLen {
			runio.PutRun(run)
		}
		for b, batch := range batches {
			if err := writers[b].Append(batch...); err != nil {
				return st, err
			}
			st.BucketSizes[b] += int64(len(batch))
			batches[b] = batch[:0]
		}
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			return st, err
		}
	}
	for _, c := range st.BucketSizes {
		st.MaxBucket = max(st.MaxBucket, c)
	}

	// Pass 3: sort the buckets in memory — concurrently across
	// opts.Config.Workers — and concatenate in bucket order. Buckets are in
	// splitter order and each is appended only after its predecessor, so
	// the output bytes are identical for every worker count; the only
	// things that change are wall-clock time and peak memory (at most
	// `workers` buckets resident instead of one).
	out, err := runio.NewSortedWriter(outPath, codec)
	if err != nil {
		return st, err
	}
	buckets := sortBuckets(paths, codec, opts.Config.EffectiveWorkers())
	// On early return, keep consuming so the pipeline goroutines terminate.
	drain := func() {
		go func() {
			for range buckets {
			}
		}()
	}
	for res := range buckets {
		if res.err != nil {
			drain()
			out.Close()
			return st, res.err
		}
		if err := out.Append(res.vals...); err != nil {
			drain()
			out.Close()
			return st, fmt.Errorf("extsort: bucket %d out of global order: %w", res.idx, err)
		}
	}
	if err := out.Close(); err != nil {
		return st, err
	}
	return st, nil
}

// sortedBucket is one bucket's sorted contents, delivered in bucket order.
type sortedBucket[T cmp.Ordered] struct {
	idx  int
	vals []T
	err  error
}

// sortBuckets reads and sorts the bucket files with up to `workers`
// goroutines and yields them strictly in bucket order. A semaphore held
// from dispatch until the consumer takes delivery bounds the number of
// resident buckets to `workers`; because slots are granted in bucket
// order, the in-order consumer can never be starved by later buckets.
func sortBuckets[T cmp.Ordered](paths []string, codec runio.Codec[T], workers int) <-chan sortedBucket[T] {
	results := make([]chan sortedBucket[T], len(paths))
	for i := range results {
		results[i] = make(chan sortedBucket[T], 1)
	}
	sem := make(chan struct{}, workers)
	go func() {
		for i := range paths {
			sem <- struct{}{}
			go func(i int) {
				vals, err := readAndSort(paths[i], codec)
				results[i] <- sortedBucket[T]{idx: i, vals: vals, err: err}
			}(i)
		}
	}()
	ordered := make(chan sortedBucket[T])
	go func() {
		defer close(ordered)
		for i := range results {
			res := <-results[i]
			<-sem // bucket delivered; free a slot for the next dispatch
			ordered <- res
		}
	}()
	return ordered
}

// readAndSort loads one bucket file and sorts it in memory.
func readAndSort[T cmp.Ordered](path string, codec runio.Codec[T]) ([]T, error) {
	bds, err := runio.OpenFile(path, codec)
	if err != nil {
		return nil, err
	}
	vals, err := runio.ReadAll[T](bds)
	if err != nil {
		return nil, err
	}
	slices.Sort(vals)
	return vals, nil
}

// splitters derives the k−1 partition boundaries from a summary: the upper
// bounds of the i/k quantiles (upper bounds guarantee that everything ≤
// splitter i has rank ≤ i·n/k + n/s).
func splitters[T cmp.Ordered](sum *core.Summary[T], k int) ([]T, error) {
	out := make([]T, 0, k-1)
	for i := 1; i < k; i++ {
		b, err := sum.Bounds(float64(i) / float64(k))
		if err != nil {
			return nil, err
		}
		out = append(out, b.Upper)
	}
	return out, nil
}

// searchSplitters returns the index of the first element of a that is ≥ x.
func searchSplitters[T cmp.Ordered](a []T, x T) int {
	return sort.Search(len(a), func(i int) bool { return a[i] >= x })
}
